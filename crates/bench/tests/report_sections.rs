//! The report phase of the real `run_all` binary (no `--sweep`, no
//! `--validate`): a filtered report is identical at any worker count
//! apart from its timing footer, its manifest lands in the request's
//! `lab_dir`, a filtered run with no output path prints to stdout and
//! leaves `EXPERIMENTS.md` alone, and a filter naming no section is a
//! usage error.

#![allow(clippy::unwrap_used)]

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ecdp-report-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `run_all --filter <filter> --jobs <jobs> <out>` with the manifest
/// directory under `dir`.
fn report(dir: &Path, filter: &str, jobs: usize, out: &Path) -> Output {
    let config = dir.join("request.json");
    std::fs::write(
        &config,
        format!(
            r#"{{"lab_dir":{:?}}}"#,
            dir.join("lab").display().to_string()
        ),
    )
    .unwrap();
    Command::new(env!("CARGO_BIN_EXE_run_all"))
        .arg("--config")
        .arg(&config)
        .args(["--filter", filter, "--jobs", &jobs.to_string()])
        .arg(out)
        .output()
        .unwrap()
}

/// The report without its `Total generation time` footer, the one line
/// that may differ between runs.
fn without_timing(path: &Path) -> String {
    std::fs::read_to_string(path)
        .unwrap()
        .lines()
        .filter(|l| !l.starts_with("Total generation time"))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn filtered_report_is_identical_at_any_job_count() {
    let dir = scratch("jobs");
    let mut texts = Vec::new();
    for jobs in [1, 4] {
        let out_path = dir.join(format!("out{jobs}.md"));
        let out = report(&dir, "table 7", jobs, &out_path);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{stderr}");
        assert!(dir.join("lab/run_all.json").exists(), "{stderr}");
        texts.push(without_timing(&out_path));
    }
    assert_eq!(texts[0], texts[1]);
    assert!(
        texts[0].contains("## Table 7 — hardware cost"),
        "{}",
        texts[0]
    );
    assert!(!texts[0].contains("## Figure"), "{}", texts[0]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn filter_matching_no_section_exits_2() {
    let dir = scratch("nomatch");
    let out_path = dir.join("out.md");
    let out = report(&dir, "no such section", 1, &out_path);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("no section matches"), "{stderr}");
    assert!(!out_path.exists(), "no report for a usage error");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn filtered_report_without_a_path_prints_and_keeps_experiments_md() {
    let dir = scratch("stdout");
    let sentinel = b"# the full report, not to be replaced by one section\n";
    std::fs::write(dir.join("EXPERIMENTS.md"), sentinel).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_run_all"))
        .current_dir(&dir)
        .args(["--filter", "table 7", "--jobs", "1"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert_eq!(
        std::fs::read(dir.join("EXPERIMENTS.md")).unwrap(),
        sentinel,
        "a filtered run replaced EXPERIMENTS.md"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("## Table 7 — hardware cost"), "{stdout}");
    assert!(!stdout.contains("## Figure"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}
