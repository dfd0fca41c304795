//! The engine hot-path throughput benchmark behind `run_all --bench`.
//!
//! Runs a (workload × system) grid through [`SystemBuilder`] with empty
//! compiler artifacts — no profiling pass, no lab cache — so the wall
//! time measures the timing engine itself. The result is a
//! [`HotpathReport`] serialized to `BENCH_hotpath.json`:
//!
//! - `cells_per_sec` — simulated grid cells completed per wall second,
//!   the headline regression-gated figure;
//! - `cycles_per_sec` — simulated machine cycles per wall second, the
//!   engine-throughput view that is robust to grid composition;
//! - `peak_rss_bytes` — `VmHWM` from `/proc/self/status`, guarding the
//!   allocation-free steady state against regressions.
//!
//! [`HotpathReport::regression_check`] compares a fresh report against a
//! checked-in baseline and fails on a >20 % `cells_per_sec` drop; the CI
//! `bench-smoke` job wires it up through the `baseline` field of its
//! request document (`examples/configs/bench-smoke.json`).

use std::time::Instant;

use ecdp::system::{CompilerArtifacts, SystemBuilder, SystemKind};
use sim_core::Json;
use workloads::InputSet;

/// One timed (workload × system) cell.
#[derive(Debug, Clone, PartialEq)]
pub struct HotpathCell {
    /// Workload name (`registry::lookup` key).
    pub workload: String,
    /// System label ([`SystemKind::label`]).
    pub system: String,
    /// Simulated cycles of the run.
    pub cycles: u64,
    /// Retired instructions of the run.
    pub retired: u64,
    /// Wall-clock milliseconds for the simulation (trace generation
    /// excluded).
    pub wall_ms: f64,
}

/// The full benchmark result written to `BENCH_hotpath.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct HotpathReport {
    /// Input set the grid ran on.
    pub input: String,
    /// True if the grid ran with the cycle-by-cycle reference stepper
    /// (`--no-skip`) instead of the event-skipping engine.
    pub no_skip: bool,
    /// True if each cell's timing covers only the portion *after* a warm
    /// checkpoint (`--warm-fork`): the cell is checkpointed at 70 % of
    /// its cold cycle count and only the forked tail is timed. This is
    /// the sweep-row view — what a `SweepPlan` pays per variant when
    /// checkpoints are already on disk.
    pub warm_fork: bool,
    /// Per-cell timings.
    pub cells: Vec<HotpathCell>,
    /// Total simulation wall seconds (sum over cells).
    pub wall_seconds: f64,
    /// Total simulated cycles (sum over cells).
    pub total_cycles: u64,
    /// Cells completed per wall second.
    pub cells_per_sec: f64,
    /// Simulated cycles per wall second.
    pub cycles_per_sec: f64,
    /// Peak resident set size of the process, if the platform exposes it.
    pub peak_rss_bytes: Option<u64>,
}

impl HotpathReport {
    /// Serializes the report (deterministic field order).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema_version", Json::Num(1.0)),
            ("input", Json::Str(self.input.clone())),
            ("no_skip", Json::Bool(self.no_skip)),
            ("warm_fork", Json::Bool(self.warm_fork)),
            (
                "cells",
                Json::Arr(
                    self.cells
                        .iter()
                        .map(|c| {
                            Json::obj([
                                ("workload", Json::Str(c.workload.clone())),
                                ("system", Json::Str(c.system.clone())),
                                ("cycles", Json::Num(c.cycles as f64)),
                                ("retired", Json::Num(c.retired as f64)),
                                ("wall_ms", Json::Num(c.wall_ms)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("wall_seconds", Json::Num(self.wall_seconds)),
            ("total_cycles", Json::Num(self.total_cycles as f64)),
            ("cells_per_sec", Json::Num(self.cells_per_sec)),
            ("cycles_per_sec", Json::Num(self.cycles_per_sec)),
            (
                "peak_rss_bytes",
                self.peak_rss_bytes
                    .map_or(Json::Null, |b| Json::Num(b as f64)),
            ),
        ])
    }

    /// Parses a report produced by [`HotpathReport::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or mistyped field.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let str_field = |v: &Json, k: &str| -> Result<String, String> {
            v.get(k)
                .and_then(Json::as_str)
                .map(ToString::to_string)
                .ok_or_else(|| format!("missing string field {k:?}"))
        };
        let num_field = |v: &Json, k: &str| -> Result<f64, String> {
            v.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("missing numeric field {k:?}"))
        };
        let int_field = |v: &Json, k: &str| -> Result<u64, String> {
            v.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing integer field {k:?}"))
        };
        let cells = v
            .get("cells")
            .and_then(Json::as_arr)
            .ok_or("missing array field \"cells\"")?
            .iter()
            .map(|c| {
                Ok(HotpathCell {
                    workload: str_field(c, "workload")?,
                    system: str_field(c, "system")?,
                    cycles: int_field(c, "cycles")?,
                    retired: int_field(c, "retired")?,
                    wall_ms: num_field(c, "wall_ms")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(HotpathReport {
            input: str_field(v, "input")?,
            no_skip: matches!(v.get("no_skip"), Some(Json::Bool(true))),
            // Absent in pre-warm-fork baselines: default false.
            warm_fork: matches!(v.get("warm_fork"), Some(Json::Bool(true))),
            cells,
            wall_seconds: num_field(v, "wall_seconds")?,
            total_cycles: int_field(v, "total_cycles")?,
            cells_per_sec: num_field(v, "cells_per_sec")?,
            cycles_per_sec: num_field(v, "cycles_per_sec")?,
            peak_rss_bytes: v.get("peak_rss_bytes").and_then(Json::as_u64),
        })
    }

    /// Fails when this report's `cells_per_sec` dropped more than
    /// `tolerance` (e.g. `0.2` = 20 %) below `baseline`'s — the CI
    /// regression gate.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the regression.
    pub fn regression_check(&self, baseline: &HotpathReport, tolerance: f64) -> Result<(), String> {
        let floor = baseline.cells_per_sec * (1.0 - tolerance);
        if self.cells_per_sec < floor {
            return Err(format!(
                "hot-path regression: {:.2} cells/sec is below {:.2} \
                 ({:.0}% of the baseline {:.2})",
                self.cells_per_sec,
                floor,
                (1.0 - tolerance) * 100.0,
                baseline.cells_per_sec,
            ));
        }
        Ok(())
    }
}

/// Peak resident set size (`VmHWM`) in bytes, on platforms with
/// `/proc/self/status`.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Runs the benchmark grid and assembles the report.
///
/// Traces are generated (and dropped from the timing) up front; every
/// cell then runs once through [`SystemBuilder`] with empty artifacts.
///
/// With `warm_fork`, each cell is first run cold *untimed* to learn its
/// length and capture a warm snapshot at 70 % of it; the timed portion
/// is only the run forked from that snapshot. The forked run's cycle
/// count is asserted identical to the cold run's, so a snapshot bug
/// shows up as a loud failure, not a silently faster benchmark.
///
/// # Panics
///
/// Panics on an unknown workload name or a failing simulation — the
/// benchmark grid is expected to be a known-good configuration.
pub fn run_hotpath_bench(
    workloads: &[String],
    input: InputSet,
    systems: &[SystemKind],
    no_skip: bool,
    warm_fork: bool,
) -> HotpathReport {
    let artifacts = CompilerArtifacts::empty();
    let traces: Vec<_> = workloads
        .iter()
        .map(|w| {
            let wl =
                workloads::registry::lookup(w).unwrap_or_else(|| panic!("unknown workload {w:?}"));
            assert!(
                !wl.is_streamed(),
                "hot-path benchmarking needs a resident trace; {w:?} is a streamed external trace"
            );
            (w.clone(), wl.generate(input))
        })
        .collect();
    let mut cells = Vec::with_capacity(traces.len() * systems.len());
    for (name, trace) in &traces {
        for &system in systems {
            let build = || {
                SystemBuilder::new(system)
                    .artifacts(&artifacts)
                    .reference_stepping(no_skip)
            };
            let die = |e: sim_core::SimError| -> ! {
                panic!("bench cell {name}/{}: {e}", system.label())
            };
            let (run, wall_ms) = if warm_fork {
                // Untimed: learn the cell's length, then capture a warm
                // snapshot at 70 % of it.
                let cold = build().run(trace).unwrap_or_else(|e| die(e));
                let checkpoint = (cold.stats.cycles * 7 / 10).max(1);
                let warm = build()
                    .warm_checkpoint(checkpoint)
                    .run(trace)
                    .unwrap_or_else(|e| die(e));
                let snapshot = warm.snapshot.unwrap_or_else(|| {
                    panic!(
                        "bench cell {name}/{}: no snapshot at cycle {checkpoint}",
                        system.label()
                    )
                });
                // Timed: only the forked tail.
                let t = Instant::now();
                let run = build()
                    .fork_from(&snapshot)
                    .run(trace)
                    .unwrap_or_else(|e| die(e));
                let wall_ms = t.elapsed().as_secs_f64() * 1e3;
                assert_eq!(
                    run.stats,
                    cold.stats,
                    "warm-forked bench cell {name}/{} diverged from its cold run",
                    system.label()
                );
                (run, wall_ms)
            } else {
                let t = Instant::now();
                let run = build().run(trace).unwrap_or_else(|e| die(e));
                (run, t.elapsed().as_secs_f64() * 1e3)
            };
            cells.push(HotpathCell {
                workload: name.clone(),
                system: system.label().to_string(),
                cycles: run.stats.cycles,
                retired: run.stats.retired_instructions,
                wall_ms,
            });
        }
    }
    let wall_seconds: f64 = cells.iter().map(|c| c.wall_ms / 1e3).sum();
    let total_cycles: u64 = cells.iter().map(|c| c.cycles).sum();
    let denom = wall_seconds.max(1e-9);
    HotpathReport {
        input: format!("{input:?}").to_lowercase(),
        no_skip,
        warm_fork,
        cells_per_sec: cells.len() as f64 / denom,
        cycles_per_sec: total_cycles as f64 / denom,
        peak_rss_bytes: peak_rss_bytes(),
        cells,
        wall_seconds,
        total_cycles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> HotpathReport {
        HotpathReport {
            input: "test".to_string(),
            no_skip: false,
            warm_fork: false,
            cells: vec![HotpathCell {
                workload: "mst".to_string(),
                system: "stream".to_string(),
                cycles: 123_456,
                retired: 65_432,
                wall_ms: 12.5,
            }],
            wall_seconds: 0.0125,
            total_cycles: 123_456,
            cells_per_sec: 80.0,
            cycles_per_sec: 9_876_480.0,
            peak_rss_bytes: Some(64 * 1024 * 1024),
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let r = sample_report();
        let text = r.to_json().to_string_pretty();
        let back = HotpathReport::from_json(&Json::parse(&text).expect("parse")).expect("decode");
        assert_eq!(r, back);
    }

    #[test]
    fn missing_rss_round_trips_as_null() {
        let mut r = sample_report();
        r.peak_rss_bytes = None;
        let text = r.to_json().to_string_pretty();
        let back = HotpathReport::from_json(&Json::parse(&text).expect("parse")).expect("decode");
        assert_eq!(back.peak_rss_bytes, None);
    }

    #[test]
    fn regression_gate_uses_the_tolerance() {
        let base = sample_report();
        let mut fresh = sample_report();
        fresh.cells_per_sec = base.cells_per_sec * 0.81;
        assert!(fresh.regression_check(&base, 0.2).is_ok());
        fresh.cells_per_sec = base.cells_per_sec * 0.79;
        let err = fresh.regression_check(&base, 0.2).expect_err("regressed");
        assert!(err.contains("regression"), "{err}");
    }

    #[test]
    fn tiny_grid_produces_consistent_totals() {
        let r = run_hotpath_bench(
            &["libquantum".to_string()],
            InputSet::Test,
            &[SystemKind::NoPrefetch, SystemKind::StreamOnly],
            false,
            false,
        );
        assert_eq!(r.cells.len(), 2);
        assert_eq!(
            r.total_cycles,
            r.cells.iter().map(|c| c.cycles).sum::<u64>()
        );
        assert!(r.cells_per_sec > 0.0);
        assert!(r.cycles_per_sec > 0.0);
        assert_eq!(r.input, "test");
        assert!(!r.warm_fork);
    }

    #[test]
    fn warm_fork_grid_reports_the_same_cycles() {
        let grid = ["libquantum".to_string()];
        let systems = [SystemKind::StreamOnly, SystemKind::StreamEcdpThrottled];
        let cold = run_hotpath_bench(&grid, InputSet::Test, &systems, false, false);
        let forked = run_hotpath_bench(&grid, InputSet::Test, &systems, false, true);
        assert!(forked.warm_fork);
        // The forked grid simulates the same cells to the same cycle
        // counts — only the timed portion shrinks.
        assert_eq!(cold.total_cycles, forked.total_cycles);
        for (c, f) in cold.cells.iter().zip(&forked.cells) {
            assert_eq!(c.cycles, f.cycles, "{}/{}", c.workload, c.system);
            assert_eq!(c.retired, f.retired, "{}/{}", c.workload, c.system);
        }
    }

    #[test]
    fn warm_fork_flag_round_trips_and_defaults_false() {
        let mut r = sample_report();
        r.warm_fork = true;
        let text = r.to_json().to_string_pretty();
        let back = HotpathReport::from_json(&Json::parse(&text).expect("parse")).expect("decode");
        assert!(back.warm_fork);
        // A pre-warm-fork baseline (no field at all) parses as false.
        let legacy = sample_report();
        let mut v = legacy.to_json();
        if let Json::Obj(pairs) = &mut v {
            pairs.retain(|(k, _)| k != "warm_fork");
        }
        let back = HotpathReport::from_json(&Json::parse(&v.to_string_pretty()).expect("parse"))
            .expect("decode");
        assert!(!back.warm_fork);
    }
}
