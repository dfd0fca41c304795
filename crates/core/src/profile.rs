//! The profiling pass — this reproduction's stand-in for the paper's
//! profiling compiler (§3, "Profiling Implementation", first approach).
//!
//! The paper's compiler simulates the target machine's cache hierarchy and
//! prefetcher on the *train* input, measures the usefulness of every
//! pointer group `PG(L, X)`, and marks groups whose prefetches are majority
//! useful as *beneficial*. Here [`profile_workload`] does exactly that: it
//! runs the train trace on the baseline machine with stream prefetching and
//! **unfiltered** CDP, collects per-PG outcomes through a
//! [`sim_core::PrefetchObserver`], and summarises them in a [`PgProfile`]
//! from which hint bit vectors are generated.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;

use sim_core::{Addr, PgTag, PrefetchObserver, PrefetchRequest, PrefetcherId, Trace};

use crate::hints::{HintTable, HintVector};
use crate::system::{SystemBuilder, SystemKind};

/// Outcome counts for one pointer group.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PgUsage {
    /// Prefetches issued on behalf of this PG (including recursive ones).
    pub issued: u64,
    /// Prefetched blocks later used by demand accesses.
    pub useful: u64,
    /// Prefetched blocks evicted without use.
    pub useless: u64,
}

impl PgUsage {
    /// Fraction of resolved prefetches that were useful (0.5 when nothing
    /// has resolved yet).
    pub fn usefulness(&self) -> f64 {
        let resolved = self.useful + self.useless;
        if resolved == 0 {
            0.5
        } else {
            self.useful as f64 / resolved as f64
        }
    }
}

/// Per-pointer-group usefulness measured over a profiling run.
#[derive(Debug, Clone, Default)]
pub struct PgProfile {
    /// Usefulness per pointer group.
    pub pgs: HashMap<PgTag, PgUsage>,
    /// Minimum resolved prefetches for a PG to be classified at all.
    pub min_samples: u64,
}

impl PgProfile {
    /// True if `pg` is beneficial: majority (>50%) of its prefetches were
    /// useful, with at least `min_samples` resolved outcomes.
    pub fn is_beneficial(&self, pg: &PgTag) -> bool {
        self.pgs.get(pg).is_some_and(|u| self.clears(u, 0.5))
    }

    /// True if `u` has at least `min_samples` resolved outcomes and a
    /// useful fraction above `threshold`.
    fn clears(&self, u: &PgUsage, threshold: f64) -> bool {
        u.useful + u.useless >= self.min_samples && u.usefulness() > threshold
    }

    /// Counts of (beneficial, harmful) pointer groups — the paper's
    /// Figure 4 breakdown.
    pub fn counts(&self) -> (usize, usize) {
        let mut beneficial = 0;
        let mut harmful = 0;
        for u in self.pgs.values() {
            if u.useful + u.useless < self.min_samples {
                continue;
            }
            if self.clears(u, 0.5) {
                beneficial += 1;
            } else {
                harmful += 1;
            }
        }
        (beneficial, harmful)
    }

    /// Histogram of PG usefulness in the paper's Figure 10 buckets:
    /// `[0–25%, 25–50%, 50–75%, 75–100%]`.
    pub fn usefulness_histogram(&self) -> [usize; 4] {
        let mut h = [0usize; 4];
        for u in self.pgs.values() {
            if u.useful + u.useless < self.min_samples {
                continue;
            }
            let f = u.usefulness();
            let bucket = if f < 0.25 {
                0
            } else if f < 0.5 {
                1
            } else if f < 0.75 {
                2
            } else {
                3
            };
            h[bucket] += 1;
        }
        h
    }

    /// Generates the per-load hint bit vectors: one bit per beneficial PG.
    pub fn hint_table(&self) -> HintTable {
        self.hint_table_at(0.5)
    }

    /// The hint bit vectors at another usefulness bar: one bit per PG
    /// whose useful fraction exceeds `threshold` (the paper's majority
    /// rule is `0.5`, footnote 4).
    pub fn hint_table_at(&self, threshold: f64) -> HintTable {
        let mut vectors: HashMap<u32, HintVector> = HashMap::new();
        for (pg, u) in &self.pgs {
            let off = i32::from(pg.offset);
            if self.clears(u, threshold) && off % 4 == 0 && (-64..=60).contains(&off) {
                vectors.entry(pg.pc).or_default().set(off);
            }
        }
        let mut table = HintTable::new();
        for (pc, v) in vectors {
            table.insert(pc, v);
        }
        table
    }

    /// Loads with at least one beneficial PG (the GRP-style coarse gate:
    /// enable *all* pointers for these loads, none for the rest).
    pub fn loads_with_beneficial_pg(&self) -> HashSet<u32> {
        self.pgs
            .keys()
            .filter(|pg| self.is_beneficial(pg))
            .map(|pg| pg.pc)
            .collect()
    }

    /// Loads whose *aggregate* prefetches are majority useful (the
    /// Srinivasan-style per-triggering-load filter of §7.2).
    pub fn majority_useful_loads(&self) -> HashSet<u32> {
        let mut per_load: HashMap<u32, (u64, u64)> = HashMap::new();
        for (pg, u) in &self.pgs {
            let e = per_load.entry(pg.pc).or_default();
            e.0 += u.useful;
            e.1 += u.useless;
        }
        per_load
            .into_iter()
            .filter(|(_, (useful, useless))| {
                useful + useless >= self.min_samples && *useful * 2 > useful + useless
            })
            .map(|(pc, _)| pc)
            .collect()
    }
}

/// Observer that attributes prefetch outcomes to pointer groups.
///
/// Create with [`PgCollector::new`]; the returned handle shares the
/// underlying map, so results remain accessible after the collector is
/// moved into the [`Machine`](sim_core::Machine).
#[derive(Debug)]
pub struct PgCollector {
    map: Rc<RefCell<HashMap<PgTag, PgUsage>>>,
}

impl PgCollector {
    /// Creates a collector and a shared handle to its results.
    #[allow(clippy::type_complexity)]
    pub fn new() -> (Self, Rc<RefCell<HashMap<PgTag, PgUsage>>>) {
        let map = Rc::new(RefCell::new(HashMap::new()));
        (
            PgCollector {
                map: Rc::clone(&map),
            },
            map,
        )
    }
}

impl PrefetchObserver for PgCollector {
    fn prefetch_issued(&mut self, req: &PrefetchRequest) {
        if let Some(pg) = req.pg {
            self.map.borrow_mut().entry(pg).or_default().issued += 1;
        }
    }

    fn prefetch_used(&mut self, _block: Addr, _id: PrefetcherId, pg: Option<PgTag>) {
        if let Some(pg) = pg {
            self.map.borrow_mut().entry(pg).or_default().useful += 1;
        }
    }

    fn prefetch_unused(&mut self, _block: Addr, _id: PrefetcherId, pg: Option<PgTag>) {
        if let Some(pg) = pg {
            self.map.borrow_mut().entry(pg).or_default().useless += 1;
        }
    }
}

/// Runs the profiling pass on `trace` (normally a *train*-input trace):
/// baseline machine, stream prefetcher + unfiltered CDP (`stream+cdp`),
/// no throttling. Returns the measured pointer-group profile.
pub fn profile_workload(trace: &Trace) -> PgProfile {
    // A wedged profiling run is a simulator bug; surface it as a
    // panic so the experiment harness records the cell as failed.
    let (_, profile) = SystemBuilder::new(SystemKind::StreamCdp)
        .run_profiled(trace)
        .expect("profiling run failed");
    profile
}

/// Observer for the paper's *second* profiling implementation (§3):
/// informing load operations. Software can observe that a prefetch was
/// issued and that a later load hit a prefetched line (the informing load
/// reports the hit and its prefetch provenance), but it never sees cache
/// evictions — so a pointer group's useless count is *inferred* as
/// `issued − used` when the run ends.
#[derive(Debug)]
pub struct InformingCollector {
    map: Rc<RefCell<HashMap<PgTag, PgUsage>>>,
}

impl InformingCollector {
    /// Creates a collector and a shared handle to its counts (`useful` and
    /// `issued` are live; `useless` is derived at the end).
    #[allow(clippy::type_complexity)]
    pub fn new() -> (Self, Rc<RefCell<HashMap<PgTag, PgUsage>>>) {
        let map = Rc::new(RefCell::new(HashMap::new()));
        (
            InformingCollector {
                map: Rc::clone(&map),
            },
            map,
        )
    }
}

impl PrefetchObserver for InformingCollector {
    fn prefetch_issued(&mut self, req: &PrefetchRequest) {
        if let Some(pg) = req.pg {
            self.map.borrow_mut().entry(pg).or_default().issued += 1;
        }
    }

    fn prefetch_used(&mut self, _block: Addr, _id: PrefetcherId, pg: Option<PgTag>) {
        if let Some(pg) = pg {
            self.map.borrow_mut().entry(pg).or_default().useful += 1;
        }
    }

    // prefetch_unused is deliberately NOT implemented: informing loads give
    // software no visibility into evictions.
}

/// The §3 "informing loads" profiling implementation: like
/// [`profile_workload`] but using only information available to software on
/// a machine with informing memory operations. Uselessness is inferred as
/// issued-but-never-informed-used, which is slightly more conservative than
/// the simulator-based profiler (in-flight and still-resident prefetches
/// count as useless).
pub fn informing_profile(trace: &Trace) -> PgProfile {
    let (collector, handle) = InformingCollector::new();
    // A wedged profiling run is a simulator bug; surface it as a
    // panic so the experiment harness records the cell as failed.
    SystemBuilder::new(SystemKind::StreamCdp)
        .observer(Box::new(collector))
        .run(trace)
        .expect("profiling run failed");
    let mut pgs = handle.borrow().clone();
    for u in pgs.values_mut() {
        u.useless = u.issued.saturating_sub(u.useful);
    }
    PgProfile {
        pgs,
        min_samples: 4,
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn tag(pc: u32, offset: i16) -> PgTag {
        PgTag { pc, offset }
    }

    fn usage(useful: u64, useless: u64) -> PgUsage {
        PgUsage {
            issued: useful + useless,
            useful,
            useless,
        }
    }

    fn profile(entries: &[(PgTag, PgUsage)]) -> PgProfile {
        PgProfile {
            pgs: entries.iter().copied().collect(),
            min_samples: 4,
        }
    }

    #[test]
    fn majority_useful_pgs_are_beneficial() {
        let p = profile(&[
            (tag(1, 8), usage(30, 10)),
            (tag(1, 4), usage(5, 40)),
            (tag(2, 0), usage(1, 1)), // below min_samples
        ]);
        assert!(p.is_beneficial(&tag(1, 8)));
        assert!(!p.is_beneficial(&tag(1, 4)));
        assert!(!p.is_beneficial(&tag(2, 0)), "insufficient samples");
        assert_eq!(p.counts(), (1, 1));
    }

    #[test]
    fn hint_table_sets_only_beneficial_bits() {
        let p = profile(&[
            (tag(1, 8), usage(30, 10)),
            (tag(1, -4), usage(20, 2)),
            (tag(1, 12), usage(2, 50)),
        ]);
        let t = p.hint_table();
        let v = t.get(1).unwrap();
        assert!(v.allows(8));
        assert!(v.allows(-4));
        assert!(!v.allows(12));
        assert!(t.get(99).is_none());
    }

    #[test]
    fn histogram_buckets_match_figure10() {
        let p = profile(&[
            (tag(1, 0), usage(0, 10)),  // 0%   -> bucket 0
            (tag(1, 4), usage(3, 7)),   // 30%  -> bucket 1
            (tag(1, 8), usage(6, 4)),   // 60%  -> bucket 2
            (tag(1, 12), usage(10, 0)), // 100% -> bucket 3
        ]);
        assert_eq!(p.usefulness_histogram(), [1, 1, 1, 1]);
    }

    #[test]
    fn per_load_gates_aggregate_across_pgs() {
        // Load 1: one great PG, one terrible PG with more volume.
        let p = profile(&[
            (tag(1, 8), usage(30, 0)),
            (tag(1, 4), usage(0, 100)),
            (tag(2, 0), usage(50, 10)),
        ]);
        let grp = p.loads_with_beneficial_pg();
        assert!(grp.contains(&1), "GRP gate: any beneficial PG enables");
        assert!(grp.contains(&2));
        let maj = p.majority_useful_loads();
        assert!(!maj.contains(&1), "aggregate accuracy of load 1 is low");
        assert!(maj.contains(&2));
    }

    #[test]
    fn collector_routes_outcomes_by_pg() {
        let (mut c, handle) = PgCollector::new();
        let pg = tag(7, 8);
        c.prefetch_issued(&PrefetchRequest {
            addr: 0x100,
            id: PrefetcherId(1),
            depth: 1,
            pg: Some(pg),
            root_pc: 7,
        });
        c.prefetch_used(0x100, PrefetcherId(1), Some(pg));
        c.prefetch_unused(0x140, PrefetcherId(1), Some(pg));
        c.prefetch_used(0x180, PrefetcherId(1), None); // untagged: ignored
        let map = handle.borrow();
        let u = map.get(&pg).unwrap();
        assert_eq!((u.issued, u.useful, u.useless), (1, 1, 1));
        assert_eq!(map.len(), 1);
    }

    #[test]
    fn informing_profiler_agrees_with_simulator_profiler() {
        use workloads::{InputSet, Workload};
        let t = workloads::olden::Mst.generate(InputSet::Train);
        let sim = profile_workload(&t);
        let inf = informing_profile(&t);
        let sim_hints = sim.hint_table();
        let inf_hints = inf.hint_table();
        assert!(!inf_hints.is_empty(), "informing profiler finds hints");
        // Every load the informing profiler enables must also be enabled by
        // the simulator-based profiler (the informing variant is the more
        // conservative of the two).
        for (pc, _) in inf_hints.iter() {
            assert!(
                sim_hints.get(*pc).is_some(),
                "informing-enabled load {pc:#x} unknown to the simulator profiler"
            );
        }
    }

    #[test]
    fn informing_collector_derives_useless_from_issued() {
        let (mut c, handle) = InformingCollector::new();
        let pg = tag(9, 8);
        for _ in 0..10 {
            c.prefetch_issued(&PrefetchRequest {
                addr: 0x100,
                id: PrefetcherId(1),
                depth: 1,
                pg: Some(pg),
                root_pc: 9,
            });
        }
        c.prefetch_used(0x100, PrefetcherId(1), Some(pg));
        // Eviction events are invisible to informing loads:
        c.prefetch_unused(0x140, PrefetcherId(1), Some(pg));
        let mut pgs = handle.borrow().clone();
        for u in pgs.values_mut() {
            u.useless = u.issued.saturating_sub(u.useful);
        }
        let u = pgs[&pg];
        assert_eq!((u.issued, u.useful, u.useless), (10, 1, 9));
    }

    /// The table's hints as sorted `(pc, positive, negative)` triples.
    fn hint_bits(t: &HintTable) -> Vec<(u32, u16, u16)> {
        let mut bits: Vec<_> = t
            .iter()
            .map(|(pc, v)| (*pc, v.positive, v.negative))
            .collect();
        bits.sort_unstable();
        bits
    }

    #[test]
    fn threshold_hint_tables_agree_with_the_majority_rule_and_nest() {
        use workloads::{InputSet, Workload};
        let traces = [
            workloads::olden::Mst.generate(InputSet::Train),
            workloads::olden::Health.generate(InputSet::Train),
            workloads::spec_int::Perlbench.generate(InputSet::Train),
        ];
        for t in &traces {
            let p = profile_workload(t);
            let majority = p.hint_table_at(0.5);
            assert!(!majority.is_empty(), "real profiles have hints");
            assert_eq!(hint_bits(&majority), hint_bits(&p.hint_table()));
            // A higher bar keeps a subset of the hints of a lower one.
            let ladder = [0.75, 0.5, 0.25].map(|th| p.hint_table_at(th));
            for pair in ladder.windows(2) {
                let (strict, loose) = (&pair[0], &pair[1]);
                for (pc, v) in strict.iter() {
                    let w = loose.get(*pc).copied().unwrap_or_default();
                    assert_eq!(v.positive & !w.positive, 0, "load {pc:#x}");
                    assert_eq!(v.negative & !w.negative, 0, "load {pc:#x}");
                }
            }
        }
    }

    #[test]
    fn end_to_end_profile_finds_beneficial_next_pointers() {
        // The mst stand-in's defining property: next-pointer PGs useful,
        // data-pointer PGs harmful.
        use workloads::{InputSet, Workload};
        let t = workloads::olden::Mst.generate(InputSet::Train);
        let p = profile_workload(&t);
        assert!(!p.pgs.is_empty(), "profiling must observe pointer groups");
        let (beneficial, harmful) = p.counts();
        assert!(beneficial > 0, "mst has useful next chains");
        assert!(harmful > 0, "mst has harmful data pointers");
    }
}
