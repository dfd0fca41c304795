//! End-to-end workload-frontend test: user-supplied `.wl` specs and
//! `.xtrc` binary traces driven through the real `run_all` binary.
//!
//! Covers the bring-your-own-workload contract:
//!
//! * `--workload-file` loads both formats and, with no explicit workload
//!   list, the sweep grid is exactly the loaded workloads;
//! * success records carry the provenance `workload_hash` and the
//!   deterministic stats are byte-identical across re-runs;
//! * a second run against the same result store is served entirely from
//!   the store (`store: "hit"`);
//! * editing a spec invalidates both its store record and its warm
//!   checkpoint: the edited workload re-simulates cold instead of
//!   forking from the old file's warm state;
//! * malformed specs and unknown `--filter` names exit 2 with pointed
//!   diagnostics (line/column, did-you-mean).

#![allow(clippy::unwrap_used)]

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use bench::Manifest;
use sim_core::{OpKind, TraceOp, XtraceWriter, NO_DEP};
use sim_mem::SimMemory;

const SPEC: &str = "\
workload frontier {
    seed 11;
    node Node { size 24; ptr next @ 16; field data @ 0; }
    chain items: Node { count 200; layout shuffled; }
    traverse items { order forward; repeat 2; visit { load data; compute 6; } }
}
";

/// A scratch directory under the target tmpdir, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("ecdp-frontend-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Writes a small but non-trivial binary external trace: a pointer
/// chase through 64 chained cells with compute bursts in between.
fn write_xtrc(path: &Path) {
    let mut mem = SimMemory::new();
    let base = 0x4000_0000u32;
    let cells = 64u32;
    for i in 0..cells {
        let addr = base + i * 0x40;
        let next = if i + 1 < cells {
            base + (i + 1) * 0x40
        } else {
            0
        };
        mem.write_u32(addr, next);
    }
    let file = std::fs::File::create(path).unwrap();
    let mut w = XtraceWriter::new(std::io::BufWriter::new(file), &mem).unwrap();
    let mut prev = NO_DEP;
    for i in 0..cells {
        let addr = base + i * 0x40;
        let next = if i + 1 < cells {
            base + (i + 1) * 0x40
        } else {
            0
        };
        w.push(&TraceOp {
            pc: 0x2000,
            addr,
            value: next,
            dep: prev,
            kind: OpKind::Load,
            lds: true,
        })
        .unwrap();
        prev = i * 2; // op index of the load just pushed (load, compute pairs)
        w.push(&TraceOp {
            pc: 0,
            addr: 0,
            value: 48,
            dep: NO_DEP,
            kind: OpKind::Compute,
            lds: false,
        })
        .unwrap();
    }
    w.finish().unwrap();
}

fn run_all(dir: &Path, args: &[&str]) -> Output {
    // One cheap system keeps the grid small; the `--workload-file` flags
    // layer over this config exactly as a user's would. The early
    // capture point gives these ~12k-cycle cells a warm checkpoint.
    std::fs::write(
        dir.join("request.json"),
        r#"{"systems":["stream"],"checkpoint":{"dir":"ckpt","warm_cycles":4000}}"#,
    )
    .unwrap();
    Command::new(env!("CARGO_BIN_EXE_run_all"))
        .current_dir(dir)
        .args(["--config", "request.json"])
        .args(args)
        .output()
        .expect("spawn run_all")
}

fn manifest(dir: &Path) -> Manifest {
    let path = dir.join("target/lab/run_all.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("no manifest at {}: {e}", path.display()));
    Manifest::parse(&text).expect("valid manifest")
}

#[test]
fn wl_and_xtrc_files_run_end_to_end_with_store_and_provenance() {
    let scratch = Scratch::new("e2e");
    let dir = scratch.path();
    std::fs::write(dir.join("frontier.wl"), SPEC).unwrap();
    write_xtrc(&dir.join("extstream.xtrc"));

    let args = [
        "--sweep",
        "--workload-file",
        "frontier.wl",
        "--workload-file",
        "extstream.xtrc",
        "--store",
        "store.json",
    ];
    let first = run_all(dir, &args);
    assert!(
        first.status.success(),
        "first run failed: {}",
        String::from_utf8_lossy(&first.stderr)
    );
    let m1 = manifest(dir);
    let mut names: Vec<&str> = m1.successes().map(|r| r.workload.as_str()).collect();
    names.sort_unstable();
    assert_eq!(
        names,
        ["extstream", "frontier"],
        "the grid must be exactly the loaded workloads"
    );
    for r in m1.successes() {
        assert_eq!(
            r.workload_hash.as_ref().map(String::len),
            Some(16),
            "loaded workload {} must carry a 16-hex provenance hash",
            r.workload
        );
        assert_ne!(r.store.as_deref(), Some("hit"), "first run cannot hit");
    }

    // Re-run against the same store: byte-identical stats, all cells
    // served from the store.
    let second = run_all(dir, &args);
    assert!(
        second.status.success(),
        "second run failed: {}",
        String::from_utf8_lossy(&second.stderr)
    );
    let m2 = manifest(dir);
    assert_eq!(m2.successes().count(), m1.successes().count());
    for (a, b) in m1.successes().zip(m2.successes()) {
        assert!(
            a.same_metrics(b),
            "stats diverged across re-runs for {}",
            a.workload
        );
        assert_eq!(
            b.store.as_deref(),
            Some("hit"),
            "second submission of {} must be served from the result store",
            b.workload
        );
    }

    // Editing the spec invalidates the store entry and the warm
    // checkpoint: the changed cell re-simulates from a cold start
    // instead of inheriting the stale result or forking the old file's
    // warm state. A new layout seed keeps the op count, so a checkpoint
    // keyed without provenance would still load and fork.
    std::fs::write(dir.join("frontier.wl"), SPEC.replace("seed 11", "seed 12")).unwrap();
    let third = run_all(dir, &args);
    assert!(
        third.status.success(),
        "third run failed: {}",
        String::from_utf8_lossy(&third.stderr)
    );
    for r in manifest(dir).successes() {
        match r.workload.as_str() {
            "frontier" => {
                assert_ne!(r.store.as_deref(), Some("hit"), "stale spec must re-run");
                assert_ne!(
                    r.checkpoint.as_deref(),
                    Some("forked"),
                    "stale spec must not fork from the old spec's checkpoint"
                );
            }
            "extstream" => assert_eq!(r.store.as_deref(), Some("hit")),
            other => panic!("unexpected workload {other}"),
        }
    }
}

#[test]
fn malformed_spec_exits_2_with_line_and_column() {
    let scratch = Scratch::new("badspec");
    let dir = scratch.path();
    std::fs::write(
        dir.join("bad.wl"),
        "workload w {\n  nodes N { size 8; }\n}\n",
    )
    .unwrap();
    let out = run_all(dir, &["--sweep", "--workload-file", "bad.wl"]);
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("line 2, column 3") && stderr.contains("unknown workload statement"),
        "diagnostic must carry position and field name, got: {stderr}"
    );
}

#[test]
fn unknown_filter_name_exits_2_with_suggestion() {
    let scratch = Scratch::new("filter");
    let dir = scratch.path();
    let out = run_all(dir, &["--sweep", "--filter", "libquantm"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("did you mean \"libquantum\"?"),
        "expected a did-you-mean from the registry, got: {stderr}"
    );
}
