//! Interval-resolution observability: a metrics registry that samples
//! per-interval counters into typed time series, plus bounded rings of
//! throttle-decision and prefetch-lifecycle events.
//!
//! # Sampling model
//!
//! The engine already quantises feedback time into *sampling intervals*
//! (every `interval_evictions` L2 evictions, the paper's §4.1). The
//! collector piggybacks on that boundary: at the end of every interval it
//! snapshots the cumulative run counters, stores the *delta* against the
//! previous boundary as an [`IntervalSample`], and records one
//! [`ThrottleTransition`] per prefetcher describing what the throttling
//! policy decided and why (the Table 3 case number, when the policy
//! exposes one through [`ThrottlePolicy::decision_trace`]). Optionally,
//! individual prefetches are traced through their lifecycle
//! (issued → filled → used/evicted) as [`LifecycleEvent`]s.
//!
//! # Overhead guarantees
//!
//! Collection is off unless explicitly requested: the engine holds an
//! `Option<Box<ObsCollector>>` that is `None` by default, so every hook
//! site on the hot path costs a single pointer null-check. Interval
//! sampling itself runs once per 8192 L2 evictions — noise even when
//! enabled. The two event rings are bounded ([`ObsConfig`] capacities);
//! when full, the **oldest** events are dropped and counted in
//! [`RunTrace::transitions_dropped`] / [`RunTrace::lifecycle_dropped`], so
//! memory stays bounded on arbitrarily long runs.
//!
//! [`ThrottlePolicy::decision_trace`]: crate::throttling::ThrottlePolicy::decision_trace

use std::collections::VecDeque;

use sim_mem::Addr;

use crate::json::Json;
use crate::prefetcher::Aggressiveness;
use crate::throttling::ThrottleDecision;

/// Schema version stamped into `timeseries.json` and every `obs.jsonl`
/// meta line.
pub const OBS_SCHEMA_VERSION: u64 = 1;

/// Selects which event classes an [`ObsCollector`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsConfig {
    /// Sample per-interval counters into the time series.
    pub timeseries: bool,
    /// Record throttle transitions (one per prefetcher per interval).
    pub decisions: bool,
    /// Record per-prefetch lifecycle events (issued/filled/used/evicted).
    /// Off by default even in [`ObsConfig::enabled`]: on long runs this is
    /// the high-volume class.
    pub lifecycle: bool,
    /// Ring capacity for throttle transitions.
    pub decision_capacity: usize,
    /// Ring capacity for lifecycle events.
    pub lifecycle_capacity: usize,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            timeseries: false,
            decisions: false,
            lifecycle: false,
            decision_capacity: 65_536,
            lifecycle_capacity: 65_536,
        }
    }
}

impl ObsConfig {
    /// The standard tracing configuration: time series and decision
    /// tracing on, lifecycle tracing off.
    pub fn enabled() -> Self {
        ObsConfig {
            timeseries: true,
            decisions: true,
            ..Default::default()
        }
    }

    /// True when at least one event class is recorded.
    pub fn any(&self) -> bool {
        self.timeseries || self.decisions || self.lifecycle
    }
}

/// One prefetcher's slice of an [`IntervalSample`].
#[derive(Debug, Clone, PartialEq)]
pub struct PrefetcherSample {
    /// Prefetches issued during this interval (raw count).
    pub issued: u64,
    /// Prefetches used during this interval (raw count, incl. late).
    pub used: u64,
    /// Late uses during this interval (raw count).
    pub late: u64,
    /// Smoothed accuracy the throttling policy saw (Equation 1).
    pub accuracy: f64,
    /// Smoothed coverage the throttling policy saw (Equation 2).
    pub coverage: f64,
    /// Aggressiveness level *after* this interval's decisions applied.
    pub level: Aggressiveness,
}

/// Per-interval counter deltas — one row of the time series.
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalSample {
    /// Interval index (0-based).
    pub interval: u64,
    /// Cycle at which the interval ended.
    pub cycle: u64,
    /// Instructions retired during this interval.
    pub retired: u64,
    /// IPC over this interval.
    pub ipc: f64,
    /// L2 demand accesses during this interval.
    pub l2_demand_accesses: u64,
    /// L2 demand misses during this interval.
    pub l2_demand_misses: u64,
    /// LDS-marked L2 demand misses during this interval.
    pub l2_lds_misses: u64,
    /// Off-chip bus block transfers during this interval.
    pub bus_transfers: u64,
    /// Fraction of this interval's cycles the bus spent transferring.
    pub bus_occupancy: f64,
    /// MSHR entries occupied at the sampling instant.
    pub mshr_occupancy: u32,
    /// Per-prefetcher slices, in registration order.
    pub prefetchers: Vec<PrefetcherSample>,
}

/// One throttle transition: what the policy decided for one prefetcher at
/// one interval boundary, with the inputs it decided from.
#[derive(Debug, Clone, PartialEq)]
pub struct ThrottleTransition {
    /// Interval index (0-based).
    pub interval: u64,
    /// Prefetcher registration index.
    pub prefetcher: u8,
    /// Table 3 case that fired (1–5); 0 when the policy does not
    /// classify its decisions.
    pub case: u8,
    /// The deciding prefetcher's smoothed accuracy input.
    pub accuracy: f64,
    /// The deciding prefetcher's smoothed coverage input.
    pub coverage: f64,
    /// The rival coverage input (0.0 for policies without one).
    pub rival_coverage: f64,
    /// The decision taken.
    pub decision: ThrottleDecision,
    /// Aggressiveness before the decision.
    pub from_level: Aggressiveness,
    /// Aggressiveness after the decision (equal to `from_level` for
    /// `Keep` and for saturated `Up`/`Down`).
    pub to_level: Aggressiveness,
}

/// Lifecycle stage of a traced prefetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LifecycleStage {
    /// The request left the prefetch queue for DRAM.
    Issued,
    /// The fill arrived in the L2.
    Filled,
    /// A demand access consumed the prefetched block.
    Used,
    /// The block was evicted (or was still resident at run end) without
    /// ever being demanded.
    Evicted,
}

impl LifecycleStage {
    fn as_str(self) -> &'static str {
        match self {
            LifecycleStage::Issued => "issued",
            LifecycleStage::Filled => "filled",
            LifecycleStage::Used => "used",
            LifecycleStage::Evicted => "evicted",
        }
    }
}

/// One prefetch lifecycle event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LifecycleEvent {
    /// Cycle of the event.
    pub cycle: u64,
    /// Lifecycle stage.
    pub stage: LifecycleStage,
    /// Prefetcher registration index.
    pub prefetcher: u8,
    /// Block address of the prefetch.
    pub addr: Addr,
    /// For `Used` events: whether the use was late (the demand arrived
    /// before the fill). Always false for other stages.
    pub late: bool,
}

/// Everything one run's collector recorded.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunTrace {
    /// The per-interval time series (empty unless `timeseries` was on).
    pub samples: Vec<IntervalSample>,
    /// Throttle transitions, oldest first (bounded ring).
    pub transitions: Vec<ThrottleTransition>,
    /// Transitions dropped because the ring was full.
    pub transitions_dropped: u64,
    /// Lifecycle events, oldest first (bounded ring).
    pub lifecycle: Vec<LifecycleEvent>,
    /// Lifecycle events dropped because the ring was full.
    pub lifecycle_dropped: u64,
}

fn level_num(l: Aggressiveness) -> u64 {
    l.index() as u64 + 1
}

fn decision_str(d: ThrottleDecision) -> &'static str {
    match d {
        ThrottleDecision::Up => "up",
        ThrottleDecision::Down => "down",
        ThrottleDecision::Keep => "keep",
    }
}

impl RunTrace {
    /// The aggressiveness trajectory of the prefetcher at registration
    /// `index`: one entry per interval, the level in force *after* that
    /// interval's decision. Requires the time series (`timeseries: true`);
    /// returns an empty vector otherwise.
    pub fn levels(&self, index: usize) -> Vec<Aggressiveness> {
        self.samples
            .iter()
            .filter_map(|s| s.prefetchers.get(index).map(|p| p.level))
            .collect()
    }

    /// Serializes the time series as the `timeseries.json` document.
    pub fn timeseries_json(&self) -> Json {
        Json::obj(vec![
            ("schema_version", Json::Num(OBS_SCHEMA_VERSION as f64)),
            (
                "intervals",
                Json::Arr(self.samples.iter().map(interval_json).collect()),
            ),
        ])
    }

    /// Serializes the event streams as JSONL: a `meta` line (carrying
    /// `extra_meta`, e.g. workload/system labels), one `throttle` line per
    /// transition, one `lifecycle` line per event, and a trailing
    /// `summary` line with totals and drop counts.
    pub fn to_jsonl(&self, extra_meta: &[(&str, Json)]) -> String {
        let mut meta = vec![
            ("type", Json::Str("meta".to_string())),
            ("schema_version", Json::Num(OBS_SCHEMA_VERSION as f64)),
        ];
        meta.extend(extra_meta.iter().cloned());
        let mut out = Json::obj(meta).to_string_compact();
        out.push('\n');
        for t in &self.transitions {
            out.push_str(&transition_json(t).to_string_compact());
            out.push('\n');
        }
        for e in &self.lifecycle {
            out.push_str(&lifecycle_json(e).to_string_compact());
            out.push('\n');
        }
        let summary = Json::obj(vec![
            ("type", Json::Str("summary".to_string())),
            ("intervals", Json::Num(self.samples.len() as f64)),
            ("transitions", Json::Num(self.transitions.len() as f64)),
            (
                "transitions_dropped",
                Json::Num(self.transitions_dropped as f64),
            ),
            ("lifecycle_events", Json::Num(self.lifecycle.len() as f64)),
            (
                "lifecycle_dropped",
                Json::Num(self.lifecycle_dropped as f64),
            ),
        ]);
        out.push_str(&summary.to_string_compact());
        out.push('\n');
        out
    }
}

fn interval_json(s: &IntervalSample) -> Json {
    Json::obj(vec![
        ("interval", Json::Num(s.interval as f64)),
        ("cycle", Json::Num(s.cycle as f64)),
        ("retired", Json::Num(s.retired as f64)),
        ("ipc", Json::Num(s.ipc)),
        ("l2_demand_accesses", Json::Num(s.l2_demand_accesses as f64)),
        ("l2_demand_misses", Json::Num(s.l2_demand_misses as f64)),
        ("l2_lds_misses", Json::Num(s.l2_lds_misses as f64)),
        ("bus_transfers", Json::Num(s.bus_transfers as f64)),
        ("bus_occupancy", Json::Num(s.bus_occupancy)),
        ("mshr_occupancy", Json::Num(f64::from(s.mshr_occupancy))),
        (
            "prefetchers",
            Json::Arr(
                s.prefetchers
                    .iter()
                    .map(|p| {
                        Json::obj(vec![
                            ("issued", Json::Num(p.issued as f64)),
                            ("used", Json::Num(p.used as f64)),
                            ("late", Json::Num(p.late as f64)),
                            ("accuracy", Json::Num(p.accuracy)),
                            ("coverage", Json::Num(p.coverage)),
                            ("level", Json::Num(level_num(p.level) as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn transition_json(t: &ThrottleTransition) -> Json {
    Json::obj(vec![
        ("type", Json::Str("throttle".to_string())),
        ("interval", Json::Num(t.interval as f64)),
        ("prefetcher", Json::Num(f64::from(t.prefetcher))),
        ("case", Json::Num(f64::from(t.case))),
        ("accuracy", Json::Num(t.accuracy)),
        ("coverage", Json::Num(t.coverage)),
        ("rival_coverage", Json::Num(t.rival_coverage)),
        ("decision", Json::Str(decision_str(t.decision).to_string())),
        ("from_level", Json::Num(level_num(t.from_level) as f64)),
        ("to_level", Json::Num(level_num(t.to_level) as f64)),
    ])
}

fn lifecycle_json(e: &LifecycleEvent) -> Json {
    Json::obj(vec![
        ("type", Json::Str("lifecycle".to_string())),
        ("cycle", Json::Num(e.cycle as f64)),
        ("stage", Json::Str(e.stage.as_str().to_string())),
        ("prefetcher", Json::Num(f64::from(e.prefetcher))),
        ("addr", Json::Num(f64::from(e.addr))),
        ("late", Json::Bool(e.late)),
    ])
}

/// Cumulative counter snapshot handed to the collector at an interval
/// boundary; the collector turns consecutive snapshots into deltas.
#[derive(Debug, Clone)]
pub struct IntervalObservation<'a> {
    /// Current cycle.
    pub cycle: u64,
    /// Cumulative retired instructions.
    pub retired: u64,
    /// Cumulative L2 demand accesses.
    pub l2_demand_accesses: u64,
    /// Cumulative L2 demand misses.
    pub l2_demand_misses: u64,
    /// Cumulative LDS-marked L2 demand misses.
    pub l2_lds_misses: u64,
    /// Cumulative bus transfers (for this core).
    pub bus_transfers: u64,
    /// Cycles one block transfer occupies the bus (config constant).
    pub bus_transfer_cycles: u64,
    /// MSHR entries occupied right now.
    pub mshr_occupancy: u32,
    /// Per-prefetcher slices for this interval.
    pub prefetchers: &'a [PrefetcherSample],
}

/// The per-run event collector the engine drives. Construct via
/// [`ObsCollector::new`]; the engine calls the `record_*` hooks, and
/// [`ObsCollector::into_trace`] yields the finished [`RunTrace`].
#[derive(Debug)]
pub struct ObsCollector {
    cfg: ObsConfig,
    samples: Vec<IntervalSample>,
    transitions: VecDeque<ThrottleTransition>,
    transitions_dropped: u64,
    lifecycle: VecDeque<LifecycleEvent>,
    lifecycle_dropped: u64,
    last_cycle: u64,
    last_retired: u64,
    last_l2_demand_accesses: u64,
    last_l2_demand_misses: u64,
    last_l2_lds_misses: u64,
    last_bus_transfers: u64,
}

impl ObsCollector {
    /// Creates a collector for one run.
    pub fn new(cfg: ObsConfig) -> Self {
        ObsCollector {
            cfg,
            samples: Vec::new(),
            transitions: VecDeque::new(),
            transitions_dropped: 0,
            lifecycle: VecDeque::new(),
            lifecycle_dropped: 0,
            last_cycle: 0,
            last_retired: 0,
            last_l2_demand_accesses: 0,
            last_l2_demand_misses: 0,
            last_l2_lds_misses: 0,
            last_bus_transfers: 0,
        }
    }

    /// Whether the time series is being recorded.
    pub fn timeseries_enabled(&self) -> bool {
        self.cfg.timeseries
    }

    /// Whether throttle transitions are being recorded.
    pub fn decisions_enabled(&self) -> bool {
        self.cfg.decisions
    }

    /// Whether lifecycle events are being recorded.
    pub fn lifecycle_enabled(&self) -> bool {
        self.cfg.lifecycle
    }

    /// Records one interval boundary from a cumulative snapshot.
    pub fn record_interval(&mut self, interval: u64, obs: &IntervalObservation<'_>) {
        let cycles = obs.cycle.saturating_sub(self.last_cycle);
        let retired = obs.retired.saturating_sub(self.last_retired);
        let bus = obs.bus_transfers.saturating_sub(self.last_bus_transfers);
        let sample = IntervalSample {
            interval,
            cycle: obs.cycle,
            retired,
            ipc: if cycles == 0 {
                0.0
            } else {
                retired as f64 / cycles as f64
            },
            l2_demand_accesses: obs
                .l2_demand_accesses
                .saturating_sub(self.last_l2_demand_accesses),
            l2_demand_misses: obs
                .l2_demand_misses
                .saturating_sub(self.last_l2_demand_misses),
            l2_lds_misses: obs.l2_lds_misses.saturating_sub(self.last_l2_lds_misses),
            bus_transfers: bus,
            bus_occupancy: if cycles == 0 {
                0.0
            } else {
                ((bus * obs.bus_transfer_cycles) as f64 / cycles as f64).min(1.0)
            },
            mshr_occupancy: obs.mshr_occupancy,
            prefetchers: obs.prefetchers.to_vec(),
        };
        self.last_cycle = obs.cycle;
        self.last_retired = obs.retired;
        self.last_l2_demand_accesses = obs.l2_demand_accesses;
        self.last_l2_demand_misses = obs.l2_demand_misses;
        self.last_l2_lds_misses = obs.l2_lds_misses;
        self.last_bus_transfers = obs.bus_transfers;
        if self.cfg.timeseries {
            self.samples.push(sample);
        }
    }

    /// Records one throttle transition (ring-bounded).
    pub fn record_transition(&mut self, t: ThrottleTransition) {
        if !self.cfg.decisions {
            return;
        }
        if self.transitions.len() >= self.cfg.decision_capacity {
            self.transitions.pop_front();
            self.transitions_dropped += 1;
        }
        self.transitions.push_back(t);
    }

    /// Records one lifecycle event (ring-bounded).
    pub fn record_lifecycle(&mut self, e: LifecycleEvent) {
        if !self.cfg.lifecycle {
            return;
        }
        if self.lifecycle.len() >= self.cfg.lifecycle_capacity {
            self.lifecycle.pop_front();
            self.lifecycle_dropped += 1;
        }
        self.lifecycle.push_back(e);
    }

    /// Finishes collection.
    pub fn into_trace(self) -> RunTrace {
        RunTrace {
            samples: self.samples,
            transitions: self.transitions.into(),
            transitions_dropped: self.transitions_dropped,
            lifecycle: self.lifecycle.into(),
            lifecycle_dropped: self.lifecycle_dropped,
        }
    }

    /// Serializes everything recorded so far plus the delta baselines
    /// (warm-state checkpointing). The configuration is *not* captured —
    /// a forked run keeps its own collector's configuration.
    pub(crate) fn save_state(&self, w: &mut FrameWriter) {
        w.u64(self.samples.len() as u64);
        for s in &self.samples {
            write_sample(w, s);
        }
        w.u64(self.transitions.len() as u64);
        for t in &self.transitions {
            write_transition(w, t);
        }
        w.u64(self.transitions_dropped);
        w.u64(self.lifecycle.len() as u64);
        for e in &self.lifecycle {
            write_lifecycle(w, e);
        }
        w.u64(self.lifecycle_dropped);
        w.u64(self.last_cycle);
        w.u64(self.last_retired);
        w.u64(self.last_l2_demand_accesses);
        w.u64(self.last_l2_demand_misses);
        w.u64(self.last_l2_lds_misses);
        w.u64(self.last_bus_transfers);
    }

    /// Restores state saved by [`ObsCollector::save_state`], keeping this
    /// collector's configuration.
    pub(crate) fn restore_state(&mut self, r: &mut FrameReader<'_>) -> Result<(), FrameError> {
        let n = r.len_prefix()?;
        self.samples.clear();
        for _ in 0..n {
            self.samples.push(read_sample(r)?);
        }
        let n = r.len_prefix()?;
        self.transitions.clear();
        for _ in 0..n {
            self.transitions.push_back(read_transition(r)?);
        }
        self.transitions_dropped = r.u64()?;
        let n = r.len_prefix()?;
        self.lifecycle.clear();
        for _ in 0..n {
            self.lifecycle.push_back(read_lifecycle(r)?);
        }
        self.lifecycle_dropped = r.u64()?;
        self.last_cycle = r.u64()?;
        self.last_retired = r.u64()?;
        self.last_l2_demand_accesses = r.u64()?;
        self.last_l2_demand_misses = r.u64()?;
        self.last_l2_lds_misses = r.u64()?;
        self.last_bus_transfers = r.u64()?;
        Ok(())
    }
}

use crate::frame::{FrameError, FrameReader, FrameWriter};

fn write_sample(w: &mut FrameWriter, s: &IntervalSample) {
    w.u64(s.interval);
    w.u64(s.cycle);
    w.u64(s.retired);
    w.f64(s.ipc);
    w.u64(s.l2_demand_accesses);
    w.u64(s.l2_demand_misses);
    w.u64(s.l2_lds_misses);
    w.u64(s.bus_transfers);
    w.f64(s.bus_occupancy);
    w.u32(s.mshr_occupancy);
    w.u32(s.prefetchers.len() as u32);
    for p in &s.prefetchers {
        w.u64(p.issued);
        w.u64(p.used);
        w.u64(p.late);
        w.f64(p.accuracy);
        w.f64(p.coverage);
        w.aggressiveness(p.level);
    }
}

fn read_sample(r: &mut FrameReader<'_>) -> Result<IntervalSample, FrameError> {
    let mut s = IntervalSample {
        interval: r.u64()?,
        cycle: r.u64()?,
        retired: r.u64()?,
        ipc: r.f64()?,
        l2_demand_accesses: r.u64()?,
        l2_demand_misses: r.u64()?,
        l2_lds_misses: r.u64()?,
        bus_transfers: r.u64()?,
        bus_occupancy: r.f64()?,
        mshr_occupancy: r.u32()?,
        prefetchers: Vec::new(),
    };
    let n = r.u32()? as usize;
    if n > 256 {
        return Err(FrameError::Malformed(format!("{n} prefetcher samples")));
    }
    for _ in 0..n {
        s.prefetchers.push(PrefetcherSample {
            issued: r.u64()?,
            used: r.u64()?,
            late: r.u64()?,
            accuracy: r.f64()?,
            coverage: r.f64()?,
            level: r.aggressiveness()?,
        });
    }
    Ok(s)
}

fn write_transition(w: &mut FrameWriter, t: &ThrottleTransition) {
    w.u64(t.interval);
    w.u8(t.prefetcher);
    w.u8(t.case);
    w.f64(t.accuracy);
    w.f64(t.coverage);
    w.f64(t.rival_coverage);
    w.u8(match t.decision {
        ThrottleDecision::Up => 0,
        ThrottleDecision::Down => 1,
        ThrottleDecision::Keep => 2,
    });
    w.aggressiveness(t.from_level);
    w.aggressiveness(t.to_level);
}

fn read_transition(r: &mut FrameReader<'_>) -> Result<ThrottleTransition, FrameError> {
    Ok(ThrottleTransition {
        interval: r.u64()?,
        prefetcher: r.u8()?,
        case: r.u8()?,
        accuracy: r.f64()?,
        coverage: r.f64()?,
        rival_coverage: r.f64()?,
        decision: match r.u8()? {
            0 => ThrottleDecision::Up,
            1 => ThrottleDecision::Down,
            2 => ThrottleDecision::Keep,
            t => return Err(FrameError::Malformed(format!("decision tag {t}"))),
        },
        from_level: r.aggressiveness()?,
        to_level: r.aggressiveness()?,
    })
}

fn write_lifecycle(w: &mut FrameWriter, e: &LifecycleEvent) {
    w.u64(e.cycle);
    w.u8(match e.stage {
        LifecycleStage::Issued => 0,
        LifecycleStage::Filled => 1,
        LifecycleStage::Used => 2,
        LifecycleStage::Evicted => 3,
    });
    w.u8(e.prefetcher);
    w.u32(e.addr);
    w.bool(e.late);
}

fn read_lifecycle(r: &mut FrameReader<'_>) -> Result<LifecycleEvent, FrameError> {
    Ok(LifecycleEvent {
        cycle: r.u64()?,
        stage: match r.u8()? {
            0 => LifecycleStage::Issued,
            1 => LifecycleStage::Filled,
            2 => LifecycleStage::Used,
            3 => LifecycleStage::Evicted,
            t => return Err(FrameError::Malformed(format!("lifecycle tag {t}"))),
        },
        prefetcher: r.u8()?,
        addr: r.u32()?,
        late: r.bool()?,
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn pf(level: Aggressiveness) -> PrefetcherSample {
        PrefetcherSample {
            issued: 10,
            used: 4,
            late: 1,
            accuracy: 0.4,
            coverage: 0.2,
            level,
        }
    }

    #[test]
    fn interval_deltas_come_from_consecutive_snapshots() {
        let mut c = ObsCollector::new(ObsConfig::enabled());
        let p = [pf(Aggressiveness::Moderate)];
        c.record_interval(
            0,
            &IntervalObservation {
                cycle: 1000,
                retired: 500,
                l2_demand_accesses: 100,
                l2_demand_misses: 40,
                l2_lds_misses: 10,
                bus_transfers: 5,
                bus_transfer_cycles: 40,
                mshr_occupancy: 3,
                prefetchers: &p,
            },
        );
        c.record_interval(
            1,
            &IntervalObservation {
                cycle: 3000,
                retired: 1500,
                l2_demand_accesses: 160,
                l2_demand_misses: 70,
                l2_lds_misses: 25,
                bus_transfers: 25,
                bus_transfer_cycles: 40,
                mshr_occupancy: 0,
                prefetchers: &p,
            },
        );
        let t = c.into_trace();
        assert_eq!(t.samples.len(), 2);
        let s = &t.samples[1];
        assert_eq!(s.cycle, 3000);
        assert_eq!(s.retired, 1000);
        assert_eq!(s.l2_demand_accesses, 60);
        assert_eq!(s.l2_demand_misses, 30);
        assert_eq!(s.l2_lds_misses, 15);
        assert_eq!(s.bus_transfers, 20);
        assert!((s.ipc - 0.5).abs() < 1e-12);
        // 20 transfers * 40 cycles / 2000 cycles = 0.4.
        assert!((s.bus_occupancy - 0.4).abs() < 1e-12);
        assert_eq!(t.levels(0).len(), 2);
        assert!(t.levels(7).is_empty());
    }

    #[test]
    fn rings_drop_oldest_and_count() {
        let cfg = ObsConfig {
            decisions: true,
            lifecycle: true,
            decision_capacity: 2,
            lifecycle_capacity: 1,
            ..Default::default()
        };
        let mut c = ObsCollector::new(cfg);
        for i in 0..4 {
            c.record_transition(ThrottleTransition {
                interval: i,
                prefetcher: 0,
                case: 1,
                accuracy: 1.0,
                coverage: 1.0,
                rival_coverage: 0.0,
                decision: ThrottleDecision::Up,
                from_level: Aggressiveness::Moderate,
                to_level: Aggressiveness::Aggressive,
            });
            c.record_lifecycle(LifecycleEvent {
                cycle: i,
                stage: LifecycleStage::Issued,
                prefetcher: 0,
                addr: 64 * i as Addr,
                late: false,
            });
        }
        let t = c.into_trace();
        assert_eq!(t.transitions.len(), 2);
        assert_eq!(t.transitions_dropped, 2);
        assert_eq!(t.transitions[0].interval, 2, "oldest dropped first");
        assert_eq!(t.lifecycle.len(), 1);
        assert_eq!(t.lifecycle_dropped, 3);
        assert_eq!(t.lifecycle[0].cycle, 3);
    }

    #[test]
    fn disabled_classes_record_nothing() {
        let mut c = ObsCollector::new(ObsConfig::default());
        assert!(!ObsConfig::default().any());
        c.record_transition(ThrottleTransition {
            interval: 0,
            prefetcher: 0,
            case: 0,
            accuracy: 0.0,
            coverage: 0.0,
            rival_coverage: 0.0,
            decision: ThrottleDecision::Keep,
            from_level: Aggressiveness::Moderate,
            to_level: Aggressiveness::Moderate,
        });
        c.record_lifecycle(LifecycleEvent {
            cycle: 0,
            stage: LifecycleStage::Evicted,
            prefetcher: 0,
            addr: 0,
            late: false,
        });
        c.record_interval(
            0,
            &IntervalObservation {
                cycle: 10,
                retired: 10,
                l2_demand_accesses: 0,
                l2_demand_misses: 0,
                l2_lds_misses: 0,
                bus_transfers: 0,
                bus_transfer_cycles: 40,
                mshr_occupancy: 0,
                prefetchers: &[],
            },
        );
        let t = c.into_trace();
        assert_eq!(t, RunTrace::default());
    }

    #[test]
    fn jsonl_lines_parse_and_carry_meta() {
        let mut c = ObsCollector::new(ObsConfig {
            lifecycle: true,
            ..ObsConfig::enabled()
        });
        c.record_transition(ThrottleTransition {
            interval: 0,
            prefetcher: 1,
            case: 4,
            accuracy: 0.5,
            coverage: 0.1,
            rival_coverage: 0.6,
            decision: ThrottleDecision::Down,
            from_level: Aggressiveness::Moderate,
            to_level: Aggressiveness::Conservative,
        });
        c.record_lifecycle(LifecycleEvent {
            cycle: 77,
            stage: LifecycleStage::Used,
            prefetcher: 1,
            addr: 0x1240,
            late: true,
        });
        let t = c.into_trace();
        let text = t.to_jsonl(&[("workload", Json::Str("mst".to_string()))]);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        let meta = Json::parse(lines[0]).unwrap();
        assert_eq!(meta.get("type").unwrap().as_str(), Some("meta"));
        assert_eq!(
            meta.get("schema_version").unwrap().as_u64(),
            Some(OBS_SCHEMA_VERSION)
        );
        assert_eq!(meta.get("workload").unwrap().as_str(), Some("mst"));
        let throttle = Json::parse(lines[1]).unwrap();
        assert_eq!(throttle.get("type").unwrap().as_str(), Some("throttle"));
        assert_eq!(throttle.get("case").unwrap().as_u64(), Some(4));
        assert_eq!(throttle.get("decision").unwrap().as_str(), Some("down"));
        assert_eq!(throttle.get("from_level").unwrap().as_u64(), Some(3));
        assert_eq!(throttle.get("to_level").unwrap().as_u64(), Some(2));
        let life = Json::parse(lines[2]).unwrap();
        assert_eq!(life.get("stage").unwrap().as_str(), Some("used"));
        assert_eq!(life.get("late").unwrap(), &Json::Bool(true));
        let summary = Json::parse(lines[3]).unwrap();
        assert_eq!(summary.get("type").unwrap().as_str(), Some("summary"));
        assert_eq!(summary.get("transitions").unwrap().as_u64(), Some(1));
        assert_eq!(summary.get("lifecycle_events").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn timeseries_json_shape() {
        let mut c = ObsCollector::new(ObsConfig::enabled());
        let p = [pf(Aggressiveness::Aggressive)];
        c.record_interval(
            0,
            &IntervalObservation {
                cycle: 100,
                retired: 200,
                l2_demand_accesses: 10,
                l2_demand_misses: 5,
                l2_lds_misses: 2,
                bus_transfers: 1,
                bus_transfer_cycles: 40,
                mshr_occupancy: 2,
                prefetchers: &p,
            },
        );
        let doc = c.into_trace().timeseries_json();
        assert_eq!(
            doc.get("schema_version").unwrap().as_u64(),
            Some(OBS_SCHEMA_VERSION)
        );
        let intervals = doc.get("intervals").unwrap().as_arr().unwrap();
        assert_eq!(intervals.len(), 1);
        let row = &intervals[0];
        assert_eq!(row.get("cycle").unwrap().as_u64(), Some(100));
        assert!((row.get("ipc").unwrap().as_f64().unwrap() - 2.0).abs() < 1e-12);
        let pfs = row.get("prefetchers").unwrap().as_arr().unwrap();
        assert_eq!(pfs[0].get("level").unwrap().as_u64(), Some(4));
    }
}
