//! DRAM system: shared memory request buffer, banks with row buffers, and
//! the off-chip data bus.
//!
//! Scheduling is FR-FCFS with demand-first priority: among the pending
//! requests for a free bank, row-buffer hits win, then demand requests beat
//! prefetches, then oldest-first. Every block transfer (read fill or dirty
//! writeback) occupies the shared data bus for a full transfer time — the
//! `BPKI` bandwidth metric counts these bus transfers.

use crate::config::{DramConfig, DramScheduling, RowPolicy};
use crate::frame::{FrameError, FrameReader, FrameWriter};
use sim_mem::{block_of, Addr};

/// A request queued at the memory controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramRequest {
    /// Block address (low bits zero).
    pub block_addr: Addr,
    /// True for dirty writebacks (no completion routing needed).
    pub is_write: bool,
    /// True for demand misses (scheduling priority over prefetches).
    pub is_demand: bool,
    /// Issuing core.
    pub core: u8,
    /// MSHR slot to wake on completion (reads only).
    pub mshr_slot: u32,
    /// Cycle the request entered the buffer.
    pub enqueue_cycle: u64,
}

/// A finished DRAM access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramCompletion {
    /// The original request.
    pub request: DramRequest,
    /// Cycle at which the data transfer finished.
    pub finish_cycle: u64,
}

#[derive(Debug, Clone, Copy)]
struct Bank {
    busy_until: u64,
    open_row: Option<u32>,
}

#[derive(Debug, Clone, Copy)]
struct InFlight {
    request: DramRequest,
    finish_cycle: u64,
}

/// A buffered request with its bank and row precomputed at enqueue time,
/// so the scheduling scan does no address arithmetic (the divisions in
/// `bank_of`/`row_of` dominated the scan cost).
#[derive(Debug, Clone, Copy)]
struct Queued {
    request: DramRequest,
    bank: u32,
    row: u32,
}

/// The DRAM system shared by all cores.
///
/// Call [`Dram::try_enqueue`] to submit requests (bounded by the memory
/// request buffer), [`Dram::tick`] each cycle to collect completions, and
/// [`Dram::next_event`] to find the next cycle at which anything can happen
/// (for idle-cycle skipping).
#[derive(Debug)]
pub struct Dram {
    config: DramConfig,
    capacity: usize,
    queue: Vec<Queued>,
    banks: Vec<Bank>,
    in_flight: Vec<InFlight>,
    bus_free_at: u64,
    bus_transfers: u64,
    bus_transfers_by_core: Vec<u64>,
    row_hits: u64,
    row_conflicts: u64,
    /// Scratch buffer returned by [`Dram::tick`]; reused across calls so
    /// the steady state allocates nothing.
    completions: Vec<DramCompletion>,
    /// Earliest in-flight finish cycle (`u64::MAX` when none) — kept
    /// exact so `tick` can skip the drain scan and `next_event` is O(1).
    next_finish: u64,
    /// Set by `try_enqueue`; cleared by the next scheduling scan. While
    /// clear, no scan can succeed before `next_bank_free` (see proof in
    /// [`Dram::schedule`]), so scans in between are skipped.
    sched_dirty: bool,
    /// Earliest `busy_until` over the banks that were still busy at the
    /// end of the last scheduling scan (`u64::MAX` when none were).
    next_bank_free: u64,
}

impl Dram {
    /// Creates a DRAM system serving `cores` cores (the request buffer holds
    /// `request_buffer_per_core * cores` entries).
    pub fn new(config: DramConfig, cores: u32) -> Self {
        let capacity = (config.request_buffer_per_core * cores) as usize;
        let banks = vec![
            Bank {
                busy_until: 0,
                open_row: None
            };
            config.num_banks as usize
        ];
        Dram {
            config,
            capacity,
            queue: Vec::new(),
            banks,
            in_flight: Vec::new(),
            bus_free_at: 0,
            bus_transfers: 0,
            bus_transfers_by_core: vec![0; cores as usize],
            row_hits: 0,
            row_conflicts: 0,
            completions: Vec::new(),
            next_finish: u64::MAX,
            sched_dirty: false,
            next_bank_free: u64::MAX,
        }
    }

    /// Total block transfers over the data bus so far (reads + writebacks).
    pub fn bus_transfers(&self) -> u64 {
        self.bus_transfers
    }

    /// Block transfers attributable to one core.
    pub fn bus_transfers_for(&self, core: u8) -> u64 {
        self.bus_transfers_by_core[core as usize]
    }

    /// Row-buffer hits / conflicts, for reporting.
    pub fn row_stats(&self) -> (u64, u64) {
        (self.row_hits, self.row_conflicts)
    }

    /// Upper bound on how far cumulative bus busy-cycles
    /// (`bus_transfers * bus_transfer_cycles`) can run ahead of the
    /// current cycle: transfers are counted at scheduling time, and a
    /// scheduled transfer's bus slot can lie in the future by one bank
    /// access plus the serialized backlog of every other buffered request.
    /// Used by the validate subsystem's bus-conservation invariant.
    pub fn bus_busy_slack(&self) -> u64 {
        self.config.controller_overhead
            + self.config.row_conflict_cycles
            + (self.capacity as u64 + 1) * self.config.bus_transfer_cycles
    }

    /// Requests currently buffered or in flight.
    pub fn occupancy(&self) -> usize {
        self.queue.len() + self.in_flight.len()
    }

    /// True when the request buffer cannot accept another request.
    pub fn is_full(&self) -> bool {
        self.occupancy() >= self.capacity
    }

    #[inline]
    fn bank_of(&self, addr: Addr) -> usize {
        ((addr / sim_mem::BLOCK_BYTES) % self.config.num_banks) as usize
    }

    #[inline]
    fn row_of(&self, addr: Addr) -> u32 {
        addr / self.config.row_bytes
    }

    /// Submits a request. Returns false (rejecting it) when the buffer is
    /// full — the caller must retry later.
    pub fn try_enqueue(&mut self, request: DramRequest) -> bool {
        if self.is_full() {
            return false;
        }
        debug_assert_eq!(request.block_addr, block_of(request.block_addr));
        self.queue.push(Queued {
            bank: self.bank_of(request.block_addr) as u32,
            row: self.row_of(request.block_addr),
            request,
        });
        self.sched_dirty = true;
        true
    }

    /// Schedules work onto free banks and returns accesses that finished at
    /// or before `now`. The returned slice borrows an internal scratch
    /// buffer that is overwritten by the next call.
    pub fn tick(&mut self, now: u64) -> &[DramCompletion] {
        self.schedule(now);
        self.completions.clear();
        if self.next_finish <= now {
            let mut next = u64::MAX;
            let mut i = 0;
            while i < self.in_flight.len() {
                if self.in_flight[i].finish_cycle <= now {
                    let f = self.in_flight.swap_remove(i);
                    self.completions.push(DramCompletion {
                        request: f.request,
                        finish_cycle: f.finish_cycle,
                    });
                } else {
                    next = next.min(self.in_flight[i].finish_cycle);
                    i += 1;
                }
            }
            self.next_finish = next;
        }
        &self.completions
    }

    /// Runs the FR-FCFS scan unless it provably cannot schedule anything.
    ///
    /// Skipping is sound because a scan's outcome does not depend on the
    /// cycle it runs at: a request's service timing is derived from
    /// `enqueue_cycle`, the bank's `busy_until` and `bus_free_at`, never
    /// from `now`. After a scan completes, every still-queued request
    /// targets a bank that is still busy (a free bank with a matching
    /// request would have been scheduled), so until either a new request
    /// arrives (`sched_dirty`) or the earliest busy bank frees
    /// (`next_bank_free`), re-running the scan is a no-op.
    fn schedule(&mut self, now: u64) {
        if self.queue.is_empty() {
            self.sched_dirty = false;
            return;
        }
        if !self.sched_dirty && now < self.next_bank_free {
            return;
        }
        self.sched_dirty = false;
        for bank_idx in 0..self.banks.len() {
            loop {
                if self.banks[bank_idx].busy_until > now || self.queue.is_empty() {
                    break;
                }
                // Pick the next request for this bank per the configured
                // scheduling policy.
                let open_row = self.banks[bank_idx].open_row;
                let mut best: Option<(usize, (bool, bool, u64))> = None;
                for (qi, q) in self.queue.iter().enumerate() {
                    if q.bank as usize != bank_idx {
                        continue;
                    }
                    let row_hit = open_row == Some(q.row);
                    // Higher key wins. Scheduling policies zero out the
                    // components they ignore.
                    let key = match self.config.scheduling {
                        DramScheduling::FrFcfsDemandFirst => (
                            row_hit,
                            q.request.is_demand,
                            u64::MAX - q.request.enqueue_cycle,
                        ),
                        DramScheduling::FrFcfs => {
                            (row_hit, false, u64::MAX - q.request.enqueue_cycle)
                        }
                        DramScheduling::Fcfs => (false, false, u64::MAX - q.request.enqueue_cycle),
                    };
                    if best.as_ref().is_none_or(|(_, bk)| key > *bk) {
                        best = Some((qi, key));
                    }
                }
                let Some((qi, _)) = best else { break };
                let q = self.queue.swap_remove(qi);
                let req = q.request;
                let row = q.row;
                let row_hit = self.config.row_policy == RowPolicy::OpenPage
                    && self.banks[bank_idx].open_row == Some(row);
                let access = if row_hit {
                    self.row_hits += 1;
                    self.config.row_hit_cycles
                } else {
                    self.row_conflicts += 1;
                    self.config.row_conflict_cycles
                };
                // The bank could have started serving this request as soon
                // as both it and the request were available (tick may be
                // called later than that moment).
                let start = req.enqueue_cycle.max(self.banks[bank_idx].busy_until);
                let data_ready = start + self.config.controller_overhead + access;
                let bus_start = data_ready.max(self.bus_free_at);
                let finish = bus_start + self.config.bus_transfer_cycles;
                self.bus_free_at = finish;
                self.bus_transfers += 1;
                self.bus_transfers_by_core[req.core as usize] += 1;
                self.banks[bank_idx].busy_until = data_ready;
                self.banks[bank_idx].open_row = match self.config.row_policy {
                    RowPolicy::OpenPage => Some(row),
                    RowPolicy::ClosedPage => None,
                };
                self.next_finish = self.next_finish.min(finish);
                self.in_flight.push(InFlight {
                    request: req,
                    finish_cycle: finish,
                });
            }
        }
        let mut free = u64::MAX;
        for b in &self.banks {
            if b.busy_until > now {
                free = free.min(b.busy_until);
            }
        }
        self.next_bank_free = free;
    }

    /// The next cycle at which a completion or a scheduling decision can
    /// occur, or `None` if the DRAM system is completely idle.
    ///
    /// Exact (not conservative): completions use the cached earliest
    /// in-flight finish, and queued requests use the earliest bank-free
    /// cycle recorded by the last scheduling scan — per the soundness
    /// argument on the (private) `schedule` method, nothing can be
    /// scheduled before that.
    pub fn next_event(&self, now: u64) -> Option<u64> {
        let mut next: Option<u64> = None;
        let mut consider = |c: u64| {
            let c = c.max(now + 1);
            next = Some(next.map_or(c, |n: u64| n.min(c)));
        };
        if self.next_finish != u64::MAX {
            consider(self.next_finish);
        }
        if !self.queue.is_empty() {
            if self.sched_dirty || self.next_bank_free == u64::MAX {
                // Not yet scanned since the last enqueue: anything could
                // be schedulable immediately.
                consider(now + 1);
            } else {
                consider(self.next_bank_free);
            }
        }
        next
    }

    /// Serializes the complete controller state into a blob. Queue and
    /// in-flight order matter (the FR-FCFS scan and the completion drain
    /// both use `swap_remove`), so both are stored positionally; queued
    /// requests' bank/row are recomputed at restore from the
    /// configuration the snapshot layer fingerprints.
    pub(crate) fn save_state(&self) -> Vec<u8> {
        let mut w = FrameWriter::new();
        w.u32(self.banks.len() as u32);
        for b in &self.banks {
            w.u64(b.busy_until);
            match b.open_row {
                None => w.bool(false),
                Some(row) => {
                    w.bool(true);
                    w.u32(row);
                }
            }
        }
        w.u32(self.queue.len() as u32);
        for q in &self.queue {
            write_request(&mut w, &q.request);
        }
        w.u32(self.in_flight.len() as u32);
        for f in &self.in_flight {
            write_request(&mut w, &f.request);
            w.u64(f.finish_cycle);
        }
        w.u64(self.bus_free_at);
        w.u64(self.bus_transfers);
        w.u32(self.bus_transfers_by_core.len() as u32);
        for &t in &self.bus_transfers_by_core {
            w.u64(t);
        }
        w.u64(self.row_hits);
        w.u64(self.row_conflicts);
        w.u64(self.next_finish);
        w.bool(self.sched_dirty);
        w.u64(self.next_bank_free);
        w.into_bytes()
    }

    /// Restores state saved by [`Dram::save_state`] into a controller of
    /// the same configuration.
    pub(crate) fn restore_state(&mut self, data: &[u8]) -> Result<(), FrameError> {
        let mut r = FrameReader::new(data);
        let n = r.u32()? as usize;
        if n != self.banks.len() {
            return Err(FrameError::Malformed(format!(
                "snapshot has {n} banks, this controller has {}",
                self.banks.len()
            )));
        }
        for b in &mut self.banks {
            b.busy_until = r.u64()?;
            b.open_row = if r.bool()? { Some(r.u32()?) } else { None };
        }
        let n = r.u32()? as usize;
        if n > self.capacity {
            return Err(FrameError::Malformed(format!(
                "{n} queued requests exceed buffer capacity {}",
                self.capacity
            )));
        }
        self.queue.clear();
        for _ in 0..n {
            let request = read_request(&mut r)?;
            self.queue.push(Queued {
                bank: self.bank_of(request.block_addr) as u32,
                row: self.row_of(request.block_addr),
                request,
            });
        }
        let n = r.u32()? as usize;
        if self.queue.len() + n > self.capacity {
            return Err(FrameError::Malformed(format!(
                "{n} in-flight requests overflow buffer capacity {}",
                self.capacity
            )));
        }
        self.in_flight.clear();
        for _ in 0..n {
            let request = read_request(&mut r)?;
            let finish_cycle = r.u64()?;
            self.in_flight.push(InFlight {
                request,
                finish_cycle,
            });
        }
        self.bus_free_at = r.u64()?;
        self.bus_transfers = r.u64()?;
        let n = r.u32()? as usize;
        if n != self.bus_transfers_by_core.len() {
            return Err(FrameError::Malformed(format!(
                "snapshot tracks {n} cores, this controller has {}",
                self.bus_transfers_by_core.len()
            )));
        }
        for t in &mut self.bus_transfers_by_core {
            *t = r.u64()?;
        }
        self.row_hits = r.u64()?;
        self.row_conflicts = r.u64()?;
        self.next_finish = r.u64()?;
        self.sched_dirty = r.bool()?;
        self.next_bank_free = r.u64()?;
        self.completions.clear();
        r.finish()
    }
}

fn write_request(w: &mut FrameWriter, req: &DramRequest) {
    w.u32(req.block_addr);
    w.bool(req.is_write);
    w.bool(req.is_demand);
    w.u8(req.core);
    w.u32(req.mshr_slot);
    w.u64(req.enqueue_cycle);
}

fn read_request(r: &mut FrameReader<'_>) -> Result<DramRequest, FrameError> {
    Ok(DramRequest {
        block_addr: r.u32()?,
        is_write: r.bool()?,
        is_demand: r.bool()?,
        core: r.u8()?,
        mshr_slot: r.u32()?,
        enqueue_cycle: r.u64()?,
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn dram() -> Dram {
        Dram::new(DramConfig::default(), 1)
    }

    fn read_req(addr: Addr, demand: bool, at: u64) -> DramRequest {
        DramRequest {
            block_addr: addr,
            is_write: false,
            is_demand: demand,
            core: 0,
            mshr_slot: 0,
            enqueue_cycle: at,
        }
    }

    #[test]
    fn single_read_completes_at_min_latency() {
        let mut d = dram();
        assert!(d.try_enqueue(read_req(0x4000_0000, true, 0)));
        // Cold access: row conflict path. 110 + 300 + 40 = 450.
        let done = d.tick(450);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].finish_cycle, 450);
    }

    #[test]
    fn row_hit_is_faster_than_conflict() {
        let mut d = dram();
        // Two blocks in the same row, same bank (consecutive isn't:
        // consecutive blocks interleave banks, so use stride num_banks).
        let a = 0x4000_0000;
        let b = a + 64 * 8; // same bank (8 banks), same 8KB row
        d.try_enqueue(read_req(a, true, 0));
        let first = d.tick(10_000);
        assert_eq!(first.len(), 1);
        let t1 = first[0].finish_cycle;
        d.try_enqueue(read_req(b, true, t1));
        let second = d.tick(100_000);
        assert_eq!(second.len(), 1);
        let latency2 = second[0].finish_cycle - t1;
        assert!(
            latency2 < 450,
            "row hit latency {latency2} should beat cold 450"
        );
    }

    #[test]
    fn demand_beats_prefetch_on_same_bank() {
        let mut d = dram();
        let a = 0x4000_0000;
        let b = a + 64 * 8; // same bank
        d.try_enqueue(read_req(a, false, 0)); // prefetch, arrived first
        d.try_enqueue(read_req(b, true, 1)); // demand, arrived second
        let done = d.tick(2000);
        assert_eq!(done.len(), 2);
        let first = done.iter().min_by_key(|c| c.finish_cycle).unwrap();
        assert!(first.request.is_demand, "demand should be served first");
    }

    #[test]
    fn buffer_capacity_is_enforced() {
        let mut d = Dram::new(
            DramConfig {
                request_buffer_per_core: 2,
                ..DramConfig::default()
            },
            1,
        );
        assert!(d.try_enqueue(read_req(0x0, true, 0)));
        assert!(d.try_enqueue(read_req(0x40, true, 0)));
        assert!(!d.try_enqueue(read_req(0x80, true, 0)));
        assert!(d.is_full());
    }

    #[test]
    fn bus_serialises_transfers() {
        let mut d = dram();
        // Two different banks: bank accesses overlap but bus transfers
        // serialise, so completions are >= one transfer apart.
        d.try_enqueue(read_req(0x4000_0000, true, 0));
        d.try_enqueue(read_req(0x4000_0040, true, 0));
        let done = d.tick(10_000);
        assert_eq!(done.len(), 2);
        let mut t: Vec<u64> = done.iter().map(|c| c.finish_cycle).collect();
        t.sort_unstable();
        assert!(t[1] - t[0] >= DramConfig::default().bus_transfer_cycles);
        assert_eq!(d.bus_transfers(), 2);
    }

    #[test]
    fn next_event_tracks_in_flight() {
        let mut d = dram();
        assert_eq!(d.next_event(0), None);
        d.try_enqueue(read_req(0x0, true, 0));
        let _ = d.tick(0); // schedules, nothing completes yet
        let ev = d.next_event(0).expect("in-flight event");
        assert_eq!(ev, 450);
    }

    #[test]
    fn closed_page_never_row_hits() {
        let mut d = Dram::new(
            DramConfig {
                row_policy: RowPolicy::ClosedPage,
                ..DramConfig::default()
            },
            1,
        );
        let a = 0x4000_0000;
        let b = a + 64 * 8; // same bank, same row
        d.try_enqueue(read_req(a, true, 0));
        let t1 = d.tick(10_000)[0].finish_cycle;
        d.try_enqueue(read_req(b, true, t1));
        let _ = d.tick(100_000);
        let (hits, conflicts) = d.row_stats();
        assert_eq!(hits, 0, "closed page cannot row-hit");
        assert_eq!(conflicts, 2);
    }

    #[test]
    fn fcfs_serves_in_arrival_order() {
        let mut d = Dram::new(
            DramConfig {
                scheduling: DramScheduling::Fcfs,
                ..DramConfig::default()
            },
            1,
        );
        let a = 0x4000_0000;
        let b = a + 64 * 8; // same bank
        d.try_enqueue(read_req(a, false, 0)); // prefetch arrived first
        d.try_enqueue(read_req(b, true, 1)); // demand second
        let done = d.tick(2000);
        let first = done.iter().min_by_key(|c| c.finish_cycle).unwrap();
        assert!(!first.request.is_demand, "FCFS must ignore demand priority");
    }

    #[test]
    fn writes_occupy_bus() {
        let mut d = dram();
        let w = DramRequest {
            block_addr: 0x1000,
            is_write: true,
            is_demand: false,
            core: 0,
            mshr_slot: 0,
            enqueue_cycle: 0,
        };
        d.try_enqueue(w);
        let done = d.tick(10_000);
        assert_eq!(done.len(), 1);
        assert!(done[0].request.is_write);
        assert_eq!(d.bus_transfers(), 1);
    }
}
