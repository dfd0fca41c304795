//! Every variant study runs as a memoized `Lab` run keyed by a
//! `SystemSpec`. These tests pin that the spec runs reproduce the
//! machines the studies used to assemble by hand, that a variant
//! restating the default is the Figure 7 run itself, and that Figure 10's
//! profiles are the profiled runs it used to make.

#![allow(clippy::unwrap_used)]

use bench::validate::table3_spec;
use bench::{Attempt, Lab};
use ecdp::profile::profile_workload;
use ecdp::system::{CompilerArtifacts, HintSource, SystemBuilder, SystemKind, SystemSpec};
use prefetch::{CdpConfig, ContentDirectedPrefetcher, GhbConfig, GhbPrefetcher};
use sim_core::{
    Aggressiveness, DramScheduling, Machine, MachineConfig, ObsConfig, PrefetcherId, RowPolicy,
    RunStats,
};
use workloads::InputSet;

const NAMES: [&str; 3] = ["mst", "health", "perlbench"];

const PROPOSAL: SystemSpec = SystemSpec::of(SystemKind::StreamEcdpThrottled);

fn interval(interval_evictions: u64) -> MachineConfig {
    MachineConfig {
        interval_evictions,
        ..MachineConfig::default()
    }
}

fn fcfs() -> MachineConfig {
    let mut config = MachineConfig::default();
    config.dram.scheduling = DramScheduling::Fcfs;
    config
}

fn shrunk_l2() -> MachineConfig {
    let mut config = MachineConfig::default();
    config.l2.bytes = 64 * 1024;
    config.interval_evictions = 128;
    config
}

/// The machines the studies assembled by hand before they declared
/// specs, kept here as the reference each spec run must reproduce.
fn hand_built(lab: &Lab, name: &str, study: &str) -> Machine {
    let art = lab.artifacts(name);
    // The studies pinned core 0's prefetchers on the built machine
    // (`set_prefetcher_aggressiveness`, `set_initial_aggressiveness`);
    // this pins the same prefetchers before the machine is made.
    let pinned = |kind, pins: &[(usize, Aggressiveness)]| {
        let mut setup = ecdp::system::core_setup(kind, &art);
        for &(slot, level) in pins {
            setup.prefetchers[slot].set_aggressiveness(level);
        }
        Machine::with_cores(MachineConfig::default(), vec![setup])
    };
    let proposal = |art: &CompilerArtifacts, config: MachineConfig| {
        SystemBuilder::new(SystemKind::StreamEcdpThrottled)
            .artifacts(art)
            .config(config)
            .build()
    };
    let compare_bits = |compare_bits| {
        let mut setup = ecdp::system::core_setup(SystemKind::StreamEcdpThrottled, &art);
        setup.prefetchers[1] = Box::new(ContentDirectedPrefetcher::new(
            PrefetcherId(1),
            CdpConfig { compare_bits },
            Box::new(art.hints.clone()),
        ));
        Machine::with_cores(MachineConfig::default(), vec![setup])
    };
    match study {
        "bits4" => compare_bits(4),
        "bits12" => compare_bits(12),
        "depth1" => pinned(
            SystemKind::StreamEcdp,
            &[(1, Aggressiveness::VeryConservative)],
        ),
        "interval1024" => proposal(&art, interval(1024)),
        "bar25" => {
            let hints = CompilerArtifacts {
                hints: lab.profile(name).hint_table_at(0.25),
                ..CompilerArtifacts::empty()
            };
            proposal(&hints, MachineConfig::default())
        }
        "fcfs" => proposal(&art, fcfs()),
        "ghb" => {
            let mut m = SystemBuilder::new(SystemKind::StreamEcdpThrottled)
                .artifacts(&art)
                .build();
            m.add_prefetcher(Box::new(GhbPrefetcher::new(
                PrefetcherId(2),
                GhbConfig::default(),
            )));
            m
        }
        "ref-hints" => {
            // Profiled afresh here, not through the lab's profile cache.
            let profile = profile_workload(&lab.trace(name, InputSet::Ref));
            proposal(
                &CompilerArtifacts::from_profile(&profile),
                MachineConfig::default(),
            )
        }
        // Pinning every prefetcher of the core, as
        // `set_initial_aggressiveness` did: stream-only has one.
        "stream-corner" => pinned(SystemKind::StreamOnly, &[(0, Aggressiveness::Moderate)]),
        "mixed-corner" => pinned(
            SystemKind::StreamCdp,
            &[
                (0, Aggressiveness::VeryConservative),
                (1, Aggressiveness::Aggressive),
            ],
        ),
        other => panic!("no hand-built machine for {other}"),
    }
}

/// The spec each study declares now.
fn studies() -> Vec<(&'static str, SystemSpec)> {
    vec![
        ("bits4", PROPOSAL.compare_bits(4)),
        ("bits12", PROPOSAL.compare_bits(12)),
        (
            "depth1",
            SystemSpec::of(SystemKind::StreamEcdp).pin(1, Aggressiveness::VeryConservative),
        ),
        ("interval1024", PROPOSAL.config(interval(1024))),
        ("bar25", PROPOSAL.hints(HintSource::TrainAt(25))),
        ("fcfs", PROPOSAL.config(fcfs())),
        ("ghb", PROPOSAL.with_ghb()),
        ("ref-hints", PROPOSAL.hints(HintSource::Ref)),
        (
            "stream-corner",
            SystemSpec::of(SystemKind::StreamOnly).pin(0, Aggressiveness::Moderate),
        ),
        (
            "mixed-corner",
            SystemSpec::of(SystemKind::StreamCdp)
                .pin(0, Aggressiveness::VeryConservative)
                .pin(1, Aggressiveness::Aggressive),
        ),
    ]
}

fn spec_run(lab: &Lab, name: &str, spec: &SystemSpec) -> RunStats {
    lab.try_run(name, InputSet::Test, spec, Attempt::FIRST)
        .unwrap_or_else(|e| panic!("{name} on {}: {e}", spec.label()))
        .0
}

#[test]
fn every_study_spec_reproduces_its_hand_built_machine() {
    let lab = Lab::new();
    for name in NAMES {
        let trace = lab.trace(name, InputSet::Test);
        for (study, spec) in studies() {
            let want = hand_built(&lab, name, study).run(&trace).unwrap();
            assert_eq!(spec_run(&lab, name, &spec), want, "{name} {study}");
        }

        // The table3-rederivation machine, traced.
        let want = SystemBuilder::new(SystemKind::StreamEcdpThrottled)
            .artifacts(&lab.artifacts(name))
            .config(shrunk_l2())
            .observe(ObsConfig::enabled())
            .run(&trace)
            .unwrap();
        let traced = Attempt {
            traced: true,
            ..Attempt::FIRST
        };
        let (stats, trace) = lab
            .try_run(name, InputSet::Test, &table3_spec(), traced)
            .unwrap();
        assert_eq!(stats, want.stats, "{name} table3");
        assert_eq!(Some(&*trace.unwrap()), want.trace.as_ref(), "{name} table3");
    }
}

#[test]
fn default_variants_are_the_kind_runs_and_add_no_lab_run() {
    // The 8-bit, 8192-eviction, >50% and frfcfs+demand columns restate
    // the paper's defaults.
    let mut frfcfs_demand = MachineConfig::default();
    frfcfs_demand.dram.scheduling = DramScheduling::FrFcfsDemandFirst;
    frfcfs_demand.dram.row_policy = RowPolicy::OpenPage;
    let defaults = [
        PROPOSAL.compare_bits(8),
        PROPOSAL.config(interval(8192)),
        PROPOSAL.hints(HintSource::TrainAt(50)),
        PROPOSAL.config(frfcfs_demand),
    ];
    for spec in &defaults {
        assert_eq!(spec, &PROPOSAL, "{}", spec.label());
    }

    let lab = Lab::new();
    let kinds = [
        SystemKind::StreamOnly,
        SystemKind::StreamCdp,
        SystemKind::StreamEcdpThrottled,
    ];
    for kind in kinds {
        lab.try_run_on("mst", InputSet::Test, kind).unwrap();
    }
    let runs = lab.records().len();
    assert_eq!(runs, kinds.len());
    for kind in kinds {
        spec_run(&lab, "mst", &SystemSpec::of(kind));
    }
    for spec in &defaults {
        spec_run(&lab, "mst", spec);
    }
    assert_eq!(
        lab.records().len(),
        runs,
        "every default spec is a cache hit"
    );

    // A real edit is a run of its own, recorded under its own label and
    // configuration hash.
    spec_run(&lab, "mst", &PROPOSAL.config(interval(1024)));
    let records = lab.records();
    assert_eq!(records.len(), runs + 1);
    let edited = records
        .iter()
        .find(|r| r.system.starts_with("stream+ecdp+throttle+cfg."))
        .unwrap();
    assert_eq!(
        edited.config_hash,
        sim_core::config_fingerprint(&interval(1024))
    );
}

#[test]
fn figure10_profiles_equal_the_profiled_runs() {
    let lab = Lab::new();
    for name in NAMES {
        let art = lab.artifacts(name);
        let trace = lab.trace(name, InputSet::Test);
        for kind in [SystemKind::StreamCdp, SystemKind::StreamEcdp] {
            let (_, want) = SystemBuilder::new(kind)
                .artifacts(&art)
                .run_profiled(&trace)
                .unwrap();
            let got = match kind {
                SystemKind::StreamCdp => lab.profile_on(name, InputSet::Test),
                _ => lab.profile_under(name, InputSet::Test, &SystemSpec::of(kind)),
            };
            assert_eq!(got.pgs, want.pgs, "{name} {}", kind.label());
            assert_eq!(
                got.usefulness_histogram(),
                want.usefulness_histogram(),
                "{name} {}",
                kind.label()
            );
        }
    }
}
