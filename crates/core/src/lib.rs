//! **ECDP** — bandwidth-efficient content-directed prefetching of linked
//! data structures in hybrid prefetching systems.
//!
//! This crate implements the two contributions of Ebrahimi, Mutlu & Patt
//! (HPCA 2009) on top of the `sim-core`/`prefetch`/`throttle` substrate:
//!
//! 1. **Efficient CDP (ECDP)** — a compiler-guided filter for the stateless
//!    content-directed prefetcher. The [`profile`] module plays the role of
//!    the profiling compiler: it runs a workload's *train* input with
//!    unfiltered CDP, attributes every prefetch to its pointer group
//!    `PG(L, X)` (static load `L`, byte offset `X`), measures per-PG
//!    usefulness, and emits per-load **hint bit vectors** ([`hints`]).
//!    At run time the content-directed prefetcher consults the missing
//!    load's hint vector and prefetches only beneficial pointer groups.
//! 2. **Coordinated prefetcher throttling** — re-exported from the
//!    `throttle` crate and wired into complete systems by [`system`], which
//!    assembles every machine configuration evaluated in the paper
//!    (baseline stream, stream+CDP, stream+ECDP, each with and without
//!    coordinated throttling, plus the DBP/Markov/GHB/hardware-filter/FDP/
//!    PAB comparison points).
//!
//! # Quickstart
//!
//! ```
//! use ecdp::profile::profile_workload;
//! use ecdp::system::{CompilerArtifacts, SystemBuilder, SystemKind};
//! use workloads::{registry, InputSet};
//!
//! let wl = registry::lookup("mst").unwrap();
//!
//! // "Compile": profile the train input to classify pointer groups.
//! let train = wl.generate(InputSet::Train);
//! let profile = profile_workload(&train);
//! let artifacts = CompilerArtifacts::from_profile(&profile);
//!
//! // Run the ref input on the full proposal (ECDP + coordinated
//! // throttling) and on the baseline.
//! let reference = wl.generate(InputSet::Ref);
//! let base = SystemBuilder::new(SystemKind::StreamOnly)
//!     .artifacts(&artifacts)
//!     .run(&reference)
//!     .expect("sim");
//! let ours = SystemBuilder::new(SystemKind::StreamEcdpThrottled)
//!     .artifacts(&artifacts)
//!     .run(&reference)
//!     .expect("sim");
//! assert!(ours.stats.ipc() > 0.0 && base.stats.ipc() > 0.0);
//! ```

pub mod cost;
pub mod hints;
pub mod isa;
pub mod profile;
pub mod system;

pub use cost::HardwareCost;
pub use hints::{HintTable, HintVector, HINTS_SCHEMA_VERSION};
pub use profile::{profile_workload, PgProfile, PgUsage};
pub use system::{CompilerArtifacts, HintSource, SystemBuilder, SystemKind, SystemRun, SystemSpec};
