//! Benchmark stand-ins for the paper's workload suite.
//!
//! The paper evaluates on 15 pointer-intensive applications from SPEC
//! CPU2006/CPU2000, Olden and bioinformatics (`pfast`), plus the remaining
//! non-pointer-intensive SPEC/Olden programs. The original binaries and
//! inputs are not reproducible here, so each workload is a *synthetic
//! stand-in* that replicates the access-pattern structure its namesake is
//! known for — the property that actually drives CDP/ECDP behaviour:
//!
//! * which linked data structures exist (lists, trees, hash chains,
//!   quadtrees, graphs) and their node layouts (where the pointers sit);
//! * which pointer fields the traversal actually dereferences (the
//!   beneficial pointer groups) versus which it loads past (the harmful
//!   ones);
//! * how much streaming/array traffic accompanies the pointer chasing.
//!
//! Every workload implements [`Workload`] and produces a [`sim_core::Trace`]
//! by *executing functionally* against simulated memory, so fetched cache
//! blocks contain real pointer bytes for the content-directed prefetcher to
//! scan. Each has a `Train` and a `Ref` input set (different sizes and
//! seeds) supporting the paper's §6.1.6 profiling-input experiment.
//!
//! Beyond the built-ins, the [`registry`] serves *loaded* workloads —
//! DSL specs, text traces and streamed binary traces brought in through
//! [`registry::register_file`] (see [`loader`]).
//!
//! # Example
//!
//! ```
//! use workloads::{registry, InputSet};
//!
//! let mst = registry::lookup("mst").expect("mst is in the suite");
//! let trace = mst.generate(InputSet::Train);
//! assert!(trace.memory_ops() > 1000);
//! ```

pub mod bio;
pub mod common;
pub mod loader;
pub mod olden;
pub mod olden_extra;
pub mod registry;
pub mod spec_fp;
pub mod spec_int;
pub mod streaming;

pub use registry::{StreamSource, WorkloadHandle};

use sim_core::Trace;

/// Which input set to generate (paper §5: profiling uses `Train`, timed
/// runs use `Ref`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InputSet {
    /// Smoke-test input: train-sized data structures with far fewer
    /// traced iterations, so the end-to-end tests finish in seconds in
    /// debug builds while staying in the same cache-behaviour regime.
    Test,
    /// Smaller input with a different seed — the profiling input.
    Train,
    /// The measured input.
    Ref,
}

/// A benchmark stand-in that can generate an executable trace.
pub trait Workload {
    /// Benchmark name (matches the paper's tables, e.g. `"mst"`).
    fn name(&self) -> &'static str;

    /// True for the pointer-intensive suite (the paper's main 15); false
    /// for the §6.7 streaming/compute workloads.
    fn pointer_intensive(&self) -> bool {
        true
    }

    /// One-line description of the access pattern being modelled.
    fn describe(&self) -> &'static str {
        "benchmark stand-in"
    }

    /// Runs the workload functionally and records its trace.
    fn generate(&self, input: InputSet) -> Trace;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = registry::names();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before);
    }
}
