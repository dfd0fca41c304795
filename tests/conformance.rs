//! Paper-conformance integration tests: the metamorphic property suite
//! on the smoke grid, fault-injected failure paths, the
//! `VALIDATE_report.json` schema, and the end-to-end exit-code contract
//! of `run_all --validate`.
//!
//! Compiled as a `bench` test target (see `crates/bench/Cargo.toml`).
//! Run with the runtime invariants armed in every simulation:
//!
//! ```sh
//! cargo test -p bench --features validate --test conformance
//! ```

#![allow(clippy::unwrap_used)]

use std::process::Command;

use bench::validate::PROPERTIES;
use bench::{run_conformance, FaultAction, FaultPlan, Lab, ValidateReport};
use sim_core::{Json, ThrottleThresholds};
use workloads::InputSet;

const SMOKE: [&str; 3] = ["mst", "health", "libquantum"];

fn smoke_names() -> Vec<String> {
    SMOKE.iter().map(ToString::to_string).collect()
}

/// All five paper properties hold on every smoke workload, and the
/// report round-trips through its JSON schema.
#[test]
fn conformance_properties_hold_on_the_smoke_grid() {
    let lab = Lab::new();
    let report = run_conformance(
        &lab,
        &smoke_names(),
        InputSet::Test,
        &ThrottleThresholds::default(),
        SMOKE.len(),
    );
    assert_eq!(
        report.results.len(),
        PROPERTIES.len() * SMOKE.len(),
        "one result per property per workload"
    );
    for r in &report.results {
        assert!(r.passed, "{}/{}: {}", r.workload, r.property, r.detail);
        assert!(!r.detail.is_empty(), "passing results carry evidence");
    }
    assert!(report.passed());

    let text = report.to_json().to_string_pretty();
    let back = ValidateReport::from_json(&Json::parse(&text).unwrap()).unwrap();
    assert_eq!(back, report);
}

/// The report does not depend on the worker count: a 2-workload grid on
/// a fresh lab serializes byte-identically at 1 and 3 workers (3 > grid
/// size, so one worker finds nothing to claim).
#[test]
fn conformance_report_is_identical_at_any_job_count() {
    let names: Vec<String> = ["mst", "health"].iter().map(ToString::to_string).collect();
    let report_at = |jobs| {
        run_conformance(
            &Lab::new(),
            &names,
            InputSet::Test,
            &ThrottleThresholds::default(),
            jobs,
        )
        .to_json()
        .to_string_pretty()
    };
    let serial = report_at(1);
    assert_eq!(serial, report_at(3));
    assert!(serial.contains("\"workload\": \"health\""), "{serial}");
}

/// An injected panic in one grid cell fails the properties that run that
/// cell — and only the affected workload; the others stay green.
#[test]
fn injected_fault_fails_the_properties_that_run_it() {
    let mut faults = FaultPlan::none();
    faults.push(FaultAction::Panic, "mst", "test", "stream+cdp");
    let lab = Lab::with_faults(faults);
    let report = run_conformance(
        &lab,
        &smoke_names(),
        InputSet::Test,
        &ThrottleThresholds::default(),
        SMOKE.len(),
    );
    assert!(!report.passed());

    // The faulted cell (unthrottled stream+cdp via the lab cache) is
    // exercised only by the pruning comparison.
    let r = report
        .results
        .iter()
        .find(|r| r.workload == "mst" && r.property == "ecdp-prunes-cdp")
        .unwrap();
    assert!(!r.passed, "ecdp-prunes-cdp must fail on the faulted cell");
    assert!(
        r.detail.contains("panicked") && r.detail.contains("injected fault"),
        "detail must carry the panic payload: {}",
        r.detail
    );
    // Properties not touching the faulted cell, and other workloads,
    // are unaffected.
    for r in &report.results {
        let hit = r.workload == "mst" && r.property == "ecdp-prunes-cdp";
        assert_eq!(
            r.passed, !hit,
            "{}/{}: {}",
            r.workload, r.property, r.detail
        );
    }
}

/// A fault plan reaches the property runs through their labels: naming
/// one static-level corner fails exactly the property that runs it, on
/// that workload.
#[test]
fn a_fault_on_one_corner_fails_only_aggressiveness_monotone() {
    use ecdp::{SystemKind, SystemSpec};
    use sim_core::Aggressiveness;

    let corner = SystemSpec::of(SystemKind::StreamOnly).pin(0, Aggressiveness::Moderate);
    assert_eq!(corner.label(), "stream+pin0.moderate");
    let mut faults = FaultPlan::none();
    faults.push(FaultAction::Panic, "health", "test", &corner.label());
    let names: Vec<String> = ["mst", "health"].iter().map(ToString::to_string).collect();
    let report = run_conformance(
        &Lab::with_faults(faults),
        &names,
        InputSet::Test,
        &ThrottleThresholds::default(),
        names.len(),
    );
    for r in &report.results {
        let hit = r.workload == "health" && r.property == "aggressiveness-monotone";
        assert_eq!(
            r.passed, !hit,
            "{}/{}: {}",
            r.workload, r.property, r.detail
        );
        if hit {
            assert!(r.detail.contains("stream+pin0.moderate"), "{}", r.detail);
        }
    }
}

/// With the `validate` feature on, a deliberately broken threshold table
/// injected through [`ecdp::SystemBuilder::validate`] must surface as an
/// invariant-violation error, while the paper configuration sails
/// through — the runtime re-derivation actually bites.
#[cfg(feature = "validate")]
#[test]
fn runtime_validator_rejects_injected_broken_thresholds() {
    use ecdp::{SystemBuilder, SystemKind};
    use sim_core::{MachineConfig, ThrottleThresholds, ValidateConfig};

    let lab = Lab::new();
    let art = lab.artifacts("mst");
    let trace = lab.trace("mst", InputSet::Test);
    // Short intervals so the run crosses many feedback boundaries.
    let mut cfg = MachineConfig::default();
    cfg.l2.bytes = 64 * 1024;
    cfg.interval_evictions = 128;

    let run = |validate: ValidateConfig| {
        SystemBuilder::new(SystemKind::StreamEcdpThrottled)
            .artifacts(&art)
            .config(cfg.clone())
            .validate(validate)
            .run(&trace)
    };

    run(ValidateConfig::paper()).expect("paper thresholds must validate cleanly");

    let broken = ValidateConfig {
        // Unreachable thresholds: every transition re-derives as Table 3
        // case 2, so any logged case 1/3/4/5 decision is a mismatch.
        thresholds: ThrottleThresholds {
            coverage: 1.1,
            accuracy_low: 1.1,
            accuracy_high: 1.1,
        },
        ..ValidateConfig::paper()
    };
    let err = run(broken).expect_err("broken thresholds must be rejected");
    assert_eq!(err.kind(), "invariant", "{err}");
    assert!(err.to_string().contains("re-derivation mismatch"), "{err}");
}

/// With the `validate` feature on, every simulation in the suite runs
/// with the paper invariants armed by default — the whole smoke sweep
/// must come back clean without anyone calling `set_validate`.
#[cfg(feature = "validate")]
#[test]
fn feature_default_invariants_hold_across_the_smoke_sweep() {
    use ecdp::SystemKind;
    let lab = Lab::new();
    for wl in SMOKE {
        for kind in [
            SystemKind::NoPrefetch,
            SystemKind::StreamOnly,
            SystemKind::StreamCdp,
            SystemKind::StreamEcdpThrottled,
        ] {
            lab.try_run_on(wl, InputSet::Test, kind)
                .unwrap_or_else(|e| panic!("{wl}/{}: {e}", kind.label()));
        }
    }
}

/// Drives the real binary: `run_all --validate` on the smoke grid writes
/// a passing report and exits 0; a fault-injected run and a
/// broken-thresholds run each exit 2 with the violation recorded in the
/// report.
#[test]
fn run_all_validate_gate_end_to_end() {
    let dir = std::env::temp_dir().join(format!("bench-validate-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let report_path = dir.join("VALIDATE_report.json");

    let config_path = dir.join("request.json");
    let run = |extra: &str| {
        std::fs::write(
            &config_path,
            format!(
                r#"{{"workloads":["mst"],"input":"test","lab_dir":{:?}{extra}}}"#,
                dir.display().to_string()
            ),
        )
        .unwrap();
        Command::new(env!("CARGO_BIN_EXE_run_all"))
            .arg("--validate")
            .arg(&report_path)
            .arg("--config")
            .arg(&config_path)
            .output()
            .expect("run_all spawns")
    };
    let load_report = || {
        let text = std::fs::read_to_string(&report_path).expect("report written");
        ValidateReport::from_json(&Json::parse(&text).unwrap()).expect("report parses")
    };

    // Clean pass: exit 0, all properties recorded as held.
    let out = run("");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "clean run must pass\n{stderr}");
    let report = load_report();
    assert!(report.passed());
    assert_eq!(report.results.len(), PROPERTIES.len());

    // Broken thresholds injected through the documented hook: the
    // Table 3 re-derivation must mismatch and the gate must exit 2.
    let out = run(r#","validate_thresholds":"1.1,1.1,1.1""#);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "threshold violation must exit 2\n{stderr}"
    );
    let report = load_report();
    assert!(!report.passed());
    let failed = report.failures();
    assert_eq!(failed.len(), 1, "{failed:?}");
    assert_eq!(failed[0].property, "table3-rederivation");

    // An injected cell fault also trips the gate with exit 2.
    let out = run(r#","fault_plan":"panic@mst:test:stream+cdp""#);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "injected fault must exit 2\n{stderr}"
    );
    assert!(!load_report().passed());

    let _ = std::fs::remove_dir_all(&dir);
}

/// A malformed `validate_thresholds` value never reaches the suite: the
/// request is rejected as a usage error (exit 2) naming the field, and
/// no report is written.
#[test]
fn malformed_validate_thresholds_is_a_usage_error() {
    let dir = std::env::temp_dir().join(format!("bench-thresholds-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let config_path = dir.join("request.json");
    std::fs::write(
        &config_path,
        r#"{"workloads":["mst"],"input":"test","validate_thresholds":"1.1,x"}"#,
    )
    .unwrap();
    let report_path = dir.join("VALIDATE_report.json");
    let out = Command::new(env!("CARGO_BIN_EXE_run_all"))
        .arg("--validate")
        .arg(&report_path)
        .arg("--config")
        .arg(&config_path)
        .output()
        .expect("run_all spawns");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("validate_thresholds"), "{stderr}");
    assert!(!report_path.exists(), "no report for a rejected request");
    let _ = std::fs::remove_dir_all(&dir);
}
