//! Cycle-level timing simulator for the ECDP reproduction.
//!
//! This crate models the baseline machine of the paper's Table 5 (adapted to
//! 64-byte cache blocks, see `DESIGN.md`):
//!
//! * an out-of-order instruction window (256 entries, 4-wide dispatch and
//!   retire, 32-entry load/store queue) that exposes the memory-level
//!   parallelism — and, crucially, the *lack* of it on pointer chases;
//! * a two-level cache hierarchy (32 KB L1D, 1 MB 8-way L2 with 32 MSHRs);
//! * a DRAM system with banks, row buffers and a shared data bus running at
//!   a 5:1 core-to-bus frequency ratio;
//! * per-core prefetch request queues and a shared memory request buffer.
//!
//! Prefetchers and throttling policies plug in through the [`Prefetcher`]
//! and [`ThrottlePolicy`] traits; the crates `prefetch`, `throttle` and
//! `ecdp` provide the implementations evaluated in the paper.
//!
//! Workloads are *execution-driven, replayed*: a workload runs functionally
//! against [`sim_mem::SimMemory`] recording a [`Trace`]; the [`Machine`]
//! replays it, applying stores to memory in program order at dispatch so
//! that content-directed block scans observe realistic block contents.
//!
//! # Example
//!
//! ```
//! use sim_core::{Machine, MachineConfig, TraceBuilder};
//! use sim_mem::{Heap, SimMemory, layout};
//!
//! // Record a tiny trace: a pointer chase over a two-node list.
//! let mut tb = TraceBuilder::new(SimMemory::new());
//! let mut heap = Heap::new(layout::HEAP_BASE, layout::HEAP_LIMIT);
//! let n1 = heap.alloc(8).unwrap();
//! let n2 = heap.alloc(8).unwrap();
//! tb.setup(|mem| {
//!     mem.write_u32(n1 + 4, n2);
//!     mem.write_u32(n2 + 4, 0);
//! });
//! let (mut cur, mut dep) = (n1, None);
//! while cur != 0 {
//!     let (next, id) = tb.load(0x100, cur + 4, dep);
//!     cur = next;
//!     dep = Some(id);
//! }
//! let trace = tb.finish();
//!
//! let mut machine = Machine::new(MachineConfig::default());
//! let stats = machine.run(&trace).expect("simulation failed");
//! assert_eq!(stats.retired_instructions, 2);
//! ```
//!
//! Runs are fallible: [`Machine::run`] returns `Result<RunStats,
//! SimError>`, with a watchdog turning livelocks into
//! [`SimError::Deadlock`] reports that carry a [`DiagnosticSnapshot`]
//! of the stuck core instead of aborting the process.

pub mod cache;
pub mod config;
pub mod dram;
pub mod engine;
pub mod error;
pub mod frame;
pub mod json;
pub mod mshr;
pub mod multicore;
pub mod obs;
pub mod prefetcher;
pub mod snapshot;
pub mod stats;
pub mod stream;
pub mod throttling;
pub mod trace;
pub mod validate;

pub use cache::{Cache, CacheConfig, LineState};
pub use config::{CoreConfig, DramConfig, DramScheduling, MachineConfig, RowPolicy};
pub use dram::Dram;
pub use engine::Machine;
pub use error::{DiagnosticSnapshot, ErrorClass, SimError};
pub use frame::{
    config_fingerprint, fnv1a_update, FrameError, FrameReader, FrameWriter, FNV1A_BASIS,
};
pub use json::Json;
pub use multicore::{CoreSetup, MultiRunStats};
pub use obs::{
    IntervalSample, LifecycleEvent, LifecycleStage, ObsCollector, ObsConfig, PrefetcherSample,
    RunTrace, ThrottleTransition, OBS_SCHEMA_VERSION,
};
pub use prefetcher::{
    AccessKind, Aggressiveness, DemandAccess, FillEvent, NullObserver, PgTag, PrefetchCtx,
    PrefetchObserver, PrefetchRequest, Prefetcher, PrefetcherId, PrefetcherKind,
};
pub use snapshot::{Snapshot, SNAPSHOT_HEADER};
pub use stats::{PrefetcherStats, PrefetcherSummary, RunStats, StatsSummary};
pub use stream::{
    write_external, ExternalTrace, StreamedOps, XtraceError, XtraceWriter, STREAM_CHUNK_OPS,
    STREAM_LOOKBACK_OPS, XTRACE_HEADER,
};
pub use throttling::{
    AccuracyClass, DecisionTrace, IntervalFeedback, ThrottleDecision, ThrottlePolicy,
    ThrottleThresholds, TABLE4_THRESHOLDS,
};
pub use trace::{LoadId, OpKind, OpSource, ResidentOps, Trace, TraceBuilder, TraceOp, NO_DEP};
pub use validate::{
    check_transition_step, rederive_transition, IntervalCheck, RuntimeValidator, ValidateConfig,
};

/// Re-export of the address type used throughout the simulator.
pub use sim_mem::Addr;
