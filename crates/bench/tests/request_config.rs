//! Configuration-resolution tests against the real `run_all` binary:
//! `--config` files drive the sweep (including the manifest output
//! directory), flags override files, unknown fields are usage errors,
//! `BENCH_*` environment variables configure nothing, and `sweepd`
//! rejects the same malformed flags as `run_all`.

#![allow(clippy::unwrap_used)]

use std::path::PathBuf;
use std::process::Command;

use bench::{Manifest, RunOutcome};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ecdp-reqcfg-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run_all() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_run_all"));
    cmd.arg("--sweep");
    cmd
}

/// A one-cell config document whose `lab_dir` also sets the manifest
/// output directory.
fn one_cell_config(dir: &std::path::Path, extra: &str) -> PathBuf {
    let lab_dir = dir.join("lab");
    let path = dir.join("sweep.json");
    std::fs::write(
        &path,
        format!(
            r#"{{"schema_version":1,"workloads":["mst"],"input":"test","systems":["stream"],"lab_dir":{:?}{extra}}}"#,
            lab_dir.display().to_string()
        ),
    )
    .unwrap();
    path
}

/// `--config` alone drives both the sweep grid and the manifest
/// directory: the manifest lands in the file's `lab_dir` with exactly the
/// file's grid.
#[test]
fn config_file_drives_sweep_and_deep_readers() {
    let dir = scratch("file");
    let config = one_cell_config(&dir, "");
    let out = run_all().arg("--config").arg(&config).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    let manifest =
        Manifest::parse(&std::fs::read_to_string(dir.join("lab/run_all.json")).unwrap()).unwrap();
    let records: Vec<_> = manifest.successes().collect();
    assert_eq!(records.len(), 1, "{stderr}");
    assert_eq!(records[0].workload, "mst");
    assert_eq!(records[0].system, "stream");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A flag overrides the file on the same field; a stale `BENCH_JOBS`
/// in the environment plays no part.
#[test]
fn flag_overrides_both_file_and_env_on_a_conflicted_field() {
    let dir = scratch("flagwins");
    let config = one_cell_config(&dir, r#","jobs":4"#);
    let out = run_all()
        .arg("--config")
        .arg(&config)
        .arg("--jobs")
        .arg("2")
        .env("BENCH_JOBS", "8")
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(stderr.contains("on 2 workers"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `BENCH_*` variables are not a configuration source: the checked-in
/// smoke sweep with stale or invalid ones set runs exactly as it does
/// without them.
#[test]
fn bench_env_vars_do_not_change_the_run() {
    let dir = scratch("envfree");
    let config =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/configs/smoke.json");
    let manifest_path = dir.join("target/lab/run_all.json");
    let run = |env: &[(&str, &str)]| {
        let out = run_all()
            .current_dir(&dir)
            .arg("--config")
            .arg(&config)
            .envs(env.iter().copied())
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert_eq!(out.status.code(), Some(0), "{stderr}");
        let text = std::fs::read_to_string(&manifest_path).unwrap();
        std::fs::remove_file(&manifest_path).unwrap();
        let mut manifest = Manifest::parse(&text).unwrap();
        // Wall time is the one field two identical runs may differ in.
        for record in &mut manifest.records {
            if let RunOutcome::Success(r) = record {
                r.wall_ms = 0.0;
            }
        }
        manifest
    };
    let clean = run(&[]);
    assert_eq!(clean.successes().count(), 21, "3 workloads x 7 systems");
    let polluted = run(&[
        ("BENCH_SWEEP_WORKLOADS", "bogus"),
        ("BENCH_JOBS", "0"),
        ("BENCH_FAULT_PLAN", "garbage"),
    ]);
    assert_eq!(clean, polluted);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Unknown fields in a config file fail fast as usage errors instead of
/// silently configuring nothing.
#[test]
fn unknown_config_field_is_a_usage_error() {
    let dir = scratch("unknown");
    let config = dir.join("sweep.json");
    std::fs::write(
        &config,
        r#"{"schema_version":1,"workloads":["mst"],"jobz":4}"#,
    )
    .unwrap();
    let out = run_all().arg("--config").arg(&config).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("jobz"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `sweepd` reads `--config`, `--jobs` and `--store` through the same
/// checks as `run_all`: an empty value or zero workers is a usage error
/// (exit 2 with the usage text), never a server that starts without the
/// setting. The server is killed at a deadline, so a regression fails
/// instead of hanging.
#[test]
fn sweepd_rejects_the_flags_run_all_rejects() {
    use std::process::Stdio;
    use std::time::{Duration, Instant};

    for flags in [["--store", ""], ["--jobs", "0"], ["--config", ""]] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_sweepd"))
            .args(["--addr", "127.0.0.1:0"])
            .args(flags)
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        let deadline = Instant::now() + Duration::from_secs(20);
        let status = loop {
            if let Some(status) = child.try_wait().unwrap() {
                break status;
            }
            if Instant::now() > deadline {
                child.kill().unwrap();
                child.wait().unwrap();
                panic!("sweepd {flags:?} is still running: it started serving");
            }
            std::thread::sleep(Duration::from_millis(50));
        };
        let mut stderr = String::new();
        std::io::Read::read_to_string(&mut child.stderr.take().unwrap(), &mut stderr).unwrap();
        assert_eq!(status.code(), Some(2), "sweepd {flags:?}: {stderr}");
        assert!(
            stderr.contains("usage: sweepd"),
            "sweepd {flags:?}: {stderr}"
        );

        let out = Command::new(env!("CARGO_BIN_EXE_run_all"))
            .arg("--sweep")
            .args(flags)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "run_all {flags:?}: {stderr}");
        assert!(
            stderr.contains("usage: run_all"),
            "run_all {flags:?}: {stderr}"
        );
    }
}
