//! Experiment harness for the ECDP reproduction.
//!
//! Every table and figure of the paper's evaluation has a generator
//! function in [`experiments`]; the `bin/` binaries are thin wrappers, and
//! `bin/run_all` regenerates the complete `EXPERIMENTS.md`. The [`Lab`]
//! is a thread-safe cache of workload traces, profiling artifacts and run
//! results, so composite reports never repeat a simulation and the
//! [`sweep`] executor can fan cells out across worker threads. Every run
//! also leaves a [`manifest::RunRecord`] behind; binaries write the
//! collected records to `target/lab/<name>.json` for the regression
//! tests.

pub mod chart;
pub mod cli;
pub mod difftest;
pub mod experiments;
pub mod fault;
pub mod httpd;
pub mod lab;
pub mod manifest;
pub mod request;
pub mod service;
pub mod store;
pub mod sweep;
pub mod table;
pub mod validate;

pub use difftest::{random_cases, run_suite, DiffCase, DiffFailure, DiffOutcome};
pub use fault::{FaultAction, FaultPlan};
pub use lab::{CheckpointConfig, Lab};
pub use manifest::{
    config_hash, FailureRecord, Manifest, ManifestWriter, RetryInfo, RunOutcome, RunRecord,
};
pub use request::{RequestOverlay, SweepRequest, DEFAULT_SYSTEMS, REQUEST_SCHEMA_VERSION};
pub use service::{JobStatus, SweepService};
pub use store::{
    AppendDisposition, CellKey, CompactStats, RecoveryEvent, RecoveryReport, ResultStore,
};
pub use sweep::{default_jobs, RetryPolicy, SweepCell, SweepExecution, SweepOptions, SweepPlan};
pub use table::Table;
pub use validate::{run_conformance, PropertyResult, ValidateReport, VALIDATE_SCHEMA_VERSION};

/// Runs one report generator against a fresh [`Lab`], prints the report,
/// and writes the run manifest to `target/lab/<name>.json`.
///
/// This is the shared entry point of the thin per-figure binaries. A
/// panicking generator (e.g. a wedged simulation surfaced through
/// [`Lab::run_on`]) still gets its manifest of completed cells written,
/// and the process exits with status 1 instead of aborting mid-stream.
pub fn run_report(name: &str, generate: impl FnOnce(&Lab) -> String) {
    let lab = Lab::new();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| generate(&lab)));
    match &result {
        Ok(report) => print!("{report}"),
        Err(_) => eprintln!("[lab] report {name} failed; writing partial manifest"),
    }
    match lab.write_manifest(name) {
        Ok(path) => eprintln!("[lab] manifest: {}", path.display()),
        Err(e) => eprintln!("[lab] manifest write failed: {e}"),
    }
    if result.is_err() {
        std::process::exit(1);
    }
}

/// Geometric mean of a slice of positive ratios.
///
/// # Panics
///
/// Panics if `xs` is empty or contains non-positive values.
pub fn gmean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "gmean of empty slice");
    let s: f64 = xs
        .iter()
        .map(|&x| {
            assert!(x > 0.0, "gmean requires positive values");
            x.ln()
        })
        .sum();
    (s / xs.len() as f64).exp()
}

/// Arithmetic mean.
pub fn amean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gmean_of_ratios() {
        assert!((gmean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((gmean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn amean_is_average() {
        assert!((amean(&[1.0, 3.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn gmean_rejects_zero() {
        let _ = gmean(&[0.0]);
    }
}
