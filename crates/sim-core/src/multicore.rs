//! Per-core setup and results for multi-core chips.
//!
//! A [`crate::Machine`] built with [`crate::Machine::with_cores`] gives each
//! core a private L1/L2 and its own prefetchers and throttling policy, and
//! shares the memory request buffer, DRAM banks and data bus. Methodology
//! follows the paper's multi-core experiments: every core runs its own
//! workload; when a core finishes its trace its statistics are snapshotted
//! and the core *restarts* the trace (with warm caches) so that
//! memory-system contention persists until the slowest core completes.

use crate::obs::RunTrace;
use crate::prefetcher::Prefetcher;
use crate::stats::RunStats;
use crate::throttling::{NoThrottle, ThrottlePolicy};

/// Per-core prefetcher + throttling configuration for
/// [`crate::Machine::with_cores`].
pub struct CoreSetup {
    /// Prefetchers, registration order = [`crate::PrefetcherId`].
    pub prefetchers: Vec<Box<dyn Prefetcher>>,
    /// Throttling policy for this core.
    pub throttle: Box<dyn ThrottlePolicy>,
}

impl CoreSetup {
    /// A core with no prefetching and no throttling.
    pub fn bare() -> Self {
        CoreSetup {
            prefetchers: Vec::new(),
            throttle: Box::new(NoThrottle),
        }
    }
}

impl std::fmt::Debug for CoreSetup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoreSetup")
            .field("prefetchers", &self.prefetchers.len())
            .finish()
    }
}

/// Results of a multi-core run.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiRunStats {
    /// Per-core statistics, snapshotted when each core first completed its
    /// trace (a one-core run reports its final, drained statistics).
    pub per_core: Vec<RunStats>,
    /// Total bus transfers across all cores over the whole run, including
    /// the restarts of cores that completed early.
    pub total_bus_transfers: u64,
    /// Per-core observability traces (empty unless enabled with
    /// [`crate::Machine::set_obs`]; one entry per core otherwise).
    pub traces: Vec<RunTrace>,
}

impl MultiRunStats {
    /// Weighted speedup against per-core alone IPCs (Snavely & Tullsen):
    /// `sum_i IPC_shared_i / IPC_alone_i`.
    pub fn weighted_speedup(&self, alone_ipc: &[f64]) -> f64 {
        self.per_core
            .iter()
            .zip(alone_ipc)
            .map(|(s, &a)| s.ipc() / a)
            .sum()
    }

    /// Harmonic-mean speedup (Luo et al.): `n / sum_i (IPC_alone_i /
    /// IPC_shared_i)`.
    pub fn hmean_speedup(&self, alone_ipc: &[f64]) -> f64 {
        let n = self.per_core.len() as f64;
        let denom: f64 = self
            .per_core
            .iter()
            .zip(alone_ipc)
            .map(|(s, &a)| a / s.ipc())
            .sum();
        n / denom
    }

    /// Unfairness: the maximum per-core slowdown (`IPC_alone / IPC_shared`)
    /// divided by the minimum — 1.0 means perfectly even degradation.
    pub fn unfairness(&self, alone_ipc: &[f64]) -> f64 {
        let slowdowns: Vec<f64> = self
            .per_core
            .iter()
            .zip(alone_ipc)
            .map(|(s, &a)| a / s.ipc().max(1e-12))
            .collect();
        let max = slowdowns.iter().cloned().fold(f64::MIN, f64::max);
        let min = slowdowns.iter().cloned().fold(f64::MAX, f64::min);
        max / min.max(1e-12)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::SimError;
    use crate::obs::ObsConfig;
    use crate::snapshot::Snapshot;
    use crate::trace::{Trace, TraceBuilder};
    use crate::{Machine, MachineConfig};
    use sim_mem::{layout, SimMemory};

    fn stream_trace(len: u32, base_off: u32) -> Trace {
        let mut tb = TraceBuilder::new(SimMemory::new());
        for i in 0..len {
            tb.load(0x400, layout::HEAP_BASE + base_off + i * 64, None);
            tb.compute(4);
        }
        tb.finish()
    }

    #[test]
    fn two_cores_complete() {
        let cfg = MachineConfig::default();
        let mut mm = Machine::with_cores(cfg, vec![CoreSetup::bare(), CoreSetup::bare()]);
        let t0 = stream_trace(500, 0);
        let t1 = stream_trace(500, 0x100_0000);
        let r = mm.run_cores(&[&t0, &t1]).expect("run");
        assert_eq!(r.per_core.len(), 2);
        for s in &r.per_core {
            assert_eq!(s.retired_instructions, 500 * 5);
            assert!(s.cycles > 0);
        }
        assert!(r.total_bus_transfers >= 1000);
    }

    #[test]
    fn contention_slows_cores_down() {
        let cfg = MachineConfig::default();
        let alone = {
            let mut m = Machine::new(cfg.clone());
            m.run(&stream_trace(500, 0)).expect("run")
        };
        let mut mm = Machine::with_cores(
            cfg,
            vec![
                CoreSetup::bare(),
                CoreSetup::bare(),
                CoreSetup::bare(),
                CoreSetup::bare(),
            ],
        );
        let traces: Vec<Trace> = (0..4).map(|i| stream_trace(500, i * 0x100_0000)).collect();
        let r = mm
            .run_cores(&traces.iter().collect::<Vec<_>>())
            .expect("run");
        // With four cores sharing the bus, at least one core must be slower
        // than running alone.
        assert!(
            r.per_core.iter().any(|s| s.cycles > alone.cycles),
            "expected shared-resource contention"
        );
    }

    #[test]
    fn forked_multicore_run_matches_cold_run() {
        let cfg = MachineConfig::default();
        let t0 = stream_trace(400, 0);
        let t1 = stream_trace(400, 0x100_0000);
        let traces = [&t0, &t1];
        let mut cold = Machine::with_cores(cfg.clone(), vec![CoreSetup::bare(), CoreSetup::bare()]);
        cold.set_obs(ObsConfig::enabled());
        let base = cold.run_cores(&traces).expect("run");

        let mut warm = Machine::with_cores(cfg.clone(), vec![CoreSetup::bare(), CoreSetup::bare()]);
        warm.set_obs(ObsConfig::enabled());
        let warm_at = base.per_core.iter().map(|s| s.cycles).max().expect("cores") / 2;
        warm.set_warm_checkpoint(Some(warm_at));
        let unperturbed = warm.run_cores(&traces).expect("run");
        assert_eq!(
            base.per_core, unperturbed.per_core,
            "capture is a pure read"
        );
        assert_eq!(base.total_bus_transfers, unperturbed.total_bus_transfers);
        let snap = warm.take_snapshot().expect("snapshot");
        // Round-trip through the wire format, then fork a fresh machine.
        let snap = Snapshot::from_bytes(&snap.to_bytes()).expect("decode");

        let mut fork = Machine::with_cores(cfg.clone(), vec![CoreSetup::bare(), CoreSetup::bare()]);
        fork.set_obs(ObsConfig::enabled());
        fork.fork_from(&snap).expect("fork");
        let stats = fork.run_cores(&traces).expect("forked run");
        assert_eq!(base.per_core, stats.per_core, "forked run is bit-identical");
        assert_eq!(base.total_bus_transfers, stats.total_bus_transfers);
        assert_eq!(base.traces, stats.traces);

        // Core-count mismatch is rejected eagerly, in both directions.
        let err = Machine::new(cfg.clone())
            .fork_from(&snap)
            .expect_err("2-core snapshot into a one-core machine");
        assert_eq!(err.kind(), "snapshot-rejected");
        let mut one = Machine::new(cfg.clone());
        one.set_warm_checkpoint(Some(100));
        one.run(&t0).expect("run");
        let one_snap = one.take_snapshot().expect("snapshot");
        let err = Machine::with_cores(cfg, vec![CoreSetup::bare(), CoreSetup::bare()])
            .fork_from(&one_snap)
            .expect_err("one-core snapshot into a 2-core machine");
        assert_eq!(err.kind(), "snapshot-rejected");
    }

    #[test]
    fn cycle_budget_fails_a_multicore_run() {
        let t0 = stream_trace(500, 0);
        let t1 = stream_trace(500, 0x100_0000);
        let mut mm = Machine::with_cores(
            MachineConfig::default(),
            vec![CoreSetup::bare(), CoreSetup::bare()],
        );
        mm.set_cycle_budget(Some(1_000));
        match mm.run_cores(&[&t0, &t1]) {
            Err(SimError::CycleBudgetExceeded { budget, snapshot }) => {
                assert_eq!(budget, 1_000);
                assert!(snapshot.cycle >= 1_000);
                assert!(snapshot.retired_ops < snapshot.total_ops);
            }
            other => panic!("expected CycleBudgetExceeded, got {other:?}"),
        }
        // Without the budget the same chip completes.
        mm.set_cycle_budget(None);
        assert_eq!(mm.run_cores(&[&t0, &t1]).expect("run").per_core.len(), 2);
    }

    #[test]
    fn speedup_metrics_are_sane() {
        let stats = MultiRunStats {
            per_core: vec![
                RunStats {
                    cycles: 100,
                    retired_instructions: 100,
                    ..Default::default()
                },
                RunStats {
                    cycles: 100,
                    retired_instructions: 50,
                    ..Default::default()
                },
            ],
            total_bus_transfers: 0,
            traces: Vec::new(),
        };
        // Alone IPCs of 1.0 and 1.0: weighted speedup = 1.0 + 0.5.
        let ws = stats.weighted_speedup(&[1.0, 1.0]);
        assert!((ws - 1.5).abs() < 1e-12);
        // Slowdowns are 1.0 and 2.0: unfairness = 2.0.
        assert!((stats.unfairness(&[1.0, 1.0]) - 2.0).abs() < 1e-9);
        // denom = 1/1 + 1/0.5 = 3, hmean speedup = 2/3.
        let hs = stats.hmean_speedup(&[1.0, 1.0]);
        assert!((hs - 2.0 / 3.0).abs() < 1e-9);
    }
}
