//! The PAB-based multi-prefetcher selector of Gendler et al. (§7.4
//! comparison): keep only the most accurate prefetcher on, turn the rest
//! off entirely.
//!
//! Unlike coordinated throttling this scheme 1) ignores coverage, 2) can
//! disable a high-coverage prefetcher that is actually delivering the
//! performance, and 3) switches prefetchers off/on instead of adjusting
//! aggressiveness. The paper reports it *loses* 11% performance on these
//! workloads; the reproduction shows the same failure mode.
//!
//! Since the engine's throttle interface only moves aggressiveness levels,
//! on/off switching is implemented by wrapping each prefetcher in a
//! [`Switchable`] that shares an enable flag with the [`PabSelector`]
//! policy.

use std::cell::Cell;
use std::rc::Rc;

use sim_core::{
    Addr, Aggressiveness, DemandAccess, FillEvent, FrameError, FrameReader, FrameWriter,
    IntervalFeedback, PgTag, PrefetchCtx, Prefetcher, PrefetcherKind, ThrottleDecision,
    ThrottlePolicy,
};

/// A prefetcher wrapper with an externally controlled on/off switch.
///
/// While disabled, the wrapped prefetcher still observes events (its tables
/// stay warm, as in the PAB proposal) but its prefetch requests are
/// discarded.
pub struct Switchable {
    inner: Box<dyn Prefetcher>,
    enabled: Rc<Cell<bool>>,
}

impl Switchable {
    /// Wraps `inner`; returns the wrapper and the shared enable flag.
    pub fn new(inner: Box<dyn Prefetcher>) -> (Self, Rc<Cell<bool>>) {
        let flag = Rc::new(Cell::new(true));
        (
            Switchable {
                inner,
                enabled: Rc::clone(&flag),
            },
            flag,
        )
    }

    /// True if prefetch requests currently pass through.
    pub fn is_enabled(&self) -> bool {
        self.enabled.get()
    }

    fn gate(&self, ctx: &mut PrefetchCtx<'_>) {
        if !self.enabled.get() {
            let _ = ctx.take_requests();
        }
    }
}

impl std::fmt::Debug for Switchable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Switchable")
            .field("inner", &self.inner.name())
            .field("enabled", &self.enabled.get())
            .finish()
    }
}

impl Prefetcher for Switchable {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn kind(&self) -> PrefetcherKind {
        self.inner.kind()
    }

    fn on_demand_access(&mut self, ctx: &mut PrefetchCtx<'_>, ev: &DemandAccess) {
        self.inner.on_demand_access(ctx, ev);
        self.gate(ctx);
    }

    fn on_fill(&mut self, ctx: &mut PrefetchCtx<'_>, ev: &FillEvent) {
        self.inner.on_fill(ctx, ev);
        self.gate(ctx);
    }

    fn on_prefetch_outcome(&mut self, block_addr: Addr, pg: Option<PgTag>, used: bool) {
        self.inner.on_prefetch_outcome(block_addr, pg, used);
    }

    fn set_aggressiveness(&mut self, level: Aggressiveness) {
        self.inner.set_aggressiveness(level);
    }

    fn aggressiveness(&self) -> Aggressiveness {
        self.inner.aggressiveness()
    }

    fn save_state(&self, w: &mut FrameWriter) {
        // The enable flag is shared with the PabSelector policy, so
        // restoring it here also restores the selector's view.
        w.bool(self.enabled.get());
        self.inner.save_state(w);
    }

    fn load_state(&mut self, r: &mut FrameReader<'_>) -> Result<(), FrameError> {
        self.enabled.set(r.bool()?);
        self.inner.load_state(r)
    }
}

/// The PAB policy: each interval, enable only the prefetcher with the
/// highest accuracy (ties favour the lower index).
pub struct PabSelector {
    flags: Vec<Rc<Cell<bool>>>,
}

impl PabSelector {
    /// Creates the selector over the enable flags returned by
    /// [`Switchable::new`], in prefetcher registration order.
    pub fn new(flags: Vec<Rc<Cell<bool>>>) -> Self {
        PabSelector { flags }
    }
}

impl std::fmt::Debug for PabSelector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PabSelector")
            .field("prefetchers", &self.flags.len())
            .finish()
    }
}

impl ThrottlePolicy for PabSelector {
    fn name(&self) -> &'static str {
        "pab"
    }

    fn adjust(&mut self, feedback: &[IntervalFeedback]) -> Vec<ThrottleDecision> {
        debug_assert_eq!(feedback.len(), self.flags.len());
        let best = feedback
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| a.accuracy.total_cmp(&b.accuracy))
            .map(|(i, _)| i);
        for (i, flag) in self.flags.iter().enumerate() {
            flag.set(Some(i) == best);
        }
        // Aggressiveness levels are left alone; selection is on/off only.
        vec![ThrottleDecision::Keep; feedback.len()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug)]
    struct FakePf;
    impl Prefetcher for FakePf {
        fn name(&self) -> &'static str {
            "fake"
        }
        fn kind(&self) -> PrefetcherKind {
            PrefetcherKind::Other
        }
        fn on_demand_access(&mut self, ctx: &mut PrefetchCtx<'_>, ev: &DemandAccess) {
            ctx.request(sim_core::PrefetchRequest {
                addr: ev.addr + 64,
                id: sim_core::PrefetcherId(0),
                depth: 0,
                pg: None,
                root_pc: 0,
            });
        }
    }

    fn fb(accuracy: f64) -> IntervalFeedback {
        IntervalFeedback {
            accuracy,
            coverage: 0.5,
            lateness: 0.0,
            pollution: 0.0,
            level: Aggressiveness::Aggressive,
        }
    }

    #[test]
    fn selector_enables_only_most_accurate() {
        let (_, f0) = Switchable::new(Box::new(FakePf));
        let (_, f1) = Switchable::new(Box::new(FakePf));
        let mut pab = PabSelector::new(vec![Rc::clone(&f0), Rc::clone(&f1)]);
        pab.adjust(&[fb(0.3), fb(0.8)]);
        assert!(!f0.get());
        assert!(f1.get());
        pab.adjust(&[fb(0.9), fb(0.8)]);
        assert!(f0.get());
        assert!(!f1.get());
    }

    #[test]
    fn disabled_prefetcher_emits_nothing() {
        let (mut sw, flag) = Switchable::new(Box::new(FakePf));
        let mem = sim_mem::SimMemory::new();
        let ev = DemandAccess {
            pc: 1,
            addr: 0x4000_0000,
            value: 0,
            hit: false,
            is_store: false,
            cycle: 0,
        };
        let mut ctx = PrefetchCtx::new(&mem, 0);
        sw.on_demand_access(&mut ctx, &ev);
        assert_eq!(ctx.take_requests().len(), 1, "enabled passes through");
        flag.set(false);
        let mut ctx = PrefetchCtx::new(&mem, 0);
        sw.on_demand_access(&mut ctx, &ev);
        assert!(ctx.take_requests().is_empty(), "disabled discards");
    }

    #[test]
    fn decisions_are_always_keep() {
        let (_, f0) = Switchable::new(Box::new(FakePf));
        let mut pab = PabSelector::new(vec![f0]);
        assert_eq!(pab.adjust(&[fb(0.5)]), vec![ThrottleDecision::Keep]);
    }
}
