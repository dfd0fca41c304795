//! Regenerates every table and figure of the paper and writes the combined
//! report to `EXPERIMENTS.md` (in the workspace root, or the path given as
//! the last positional argument). Also writes the run manifest of every
//! simulated cell to `target/lab/run_all.json`.
//!
//! ```text
//! cargo run --release -p bench --bin run_all [-- [--config FILE]
//!                                               [--workload-file FILE]...
//!                                               [--jobs N] [--filter SUBSTR]
//!                                               [--resume] [--sweep] [--validate]
//!                                               [--trace-dir DIR] [--store PATH]
//!                                               [output.md]]
//! ```
//!
//! `--validate` bypasses both phases and runs the paper-conformance suite
//! (see [`bench::validate`]) over the grid's workloads instead, writes
//! `VALIDATE_report.json`, and exits 2 when any property is violated.
//! Performance is measured by the separate `perfbench` package, not by
//! `run_all`.
//!
//! Execution has two phases:
//!
//! 1. **Sweep**: the shared (workload × system) grid runs fault-tolerantly
//!    on the worker pool. Each cell is isolated — a panicking or
//!    deadlocked cell becomes a `Failed` manifest record while the other
//!    cells complete — and every finished cell is flushed atomically to
//!    `target/lab/run_all.json`, so a killed process leaves a valid
//!    partial manifest. `--resume` skips cells the existing manifest
//!    already records as successful under the same machine-config hash.
//!    `--sweep` stops after this phase; combined with `--filter` it runs
//!    only the matching cells, and a filter matching no cell exits 2.
//!    `--trace-dir DIR` runs every cell with the observability layer
//!    enabled and writes per-cell `timeseries.json` + `obs.jsonl` under
//!    `DIR`; the manifest records the artifact paths.
//! 2. **Sections**: report sections are generated concurrently on the
//!    same pool (mostly cache hits after the sweep); a failing section is
//!    reported inline in the output instead of aborting the report.
//!
//! The process exits 0 only if every sweep cell and every section
//! succeeded; any failure exits 1 (usage errors — including an invalid
//! `--config` document — exit 2).
//!
//! Configuration resolves through one typed [`bench::SweepRequest`]
//! (the same schema-versioned document `sweepd` accepts over HTTP):
//! flags override `--config FILE`, and the file overrides the defaults.
//! The resolved request configures everything the run uses — the lab,
//! the retry policy, the manifest directory, the worker count and the
//! conformance thresholds; the environment configures nothing. The
//! sweep grid defaults to the paper's pointer benchmarks × the seven
//! headline systems on the ref input. The section text is identical at
//! any thread count (only the trailing timing line varies): results are
//! assembled in section order and every simulation is memoized
//! process-wide by the `Lab`. `--filter` keeps only sections whose name
//! contains the substring (case-insensitive) and skips the sweep phase.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use bench::cli::{parse_args, Parsed, RunAllArgs, USAGE};
use bench::experiments::{compare, misc, multi, single};
use bench::{
    Lab, Manifest, ManifestWriter, RequestOverlay, ResultStore, RunOutcome, SweepOptions,
    SweepRequest,
};

fn fail_usage(msg: &str) -> ! {
    eprintln!("run_all: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

/// `--validate`: run the paper-conformance suite over the sweep grid's
/// workloads and write `VALIDATE_report.json`. Exits 2 when a property is
/// violated, 1 when the report cannot be written, 0 on a clean pass.
fn run_validate(args: &RunAllArgs, request: &SweepRequest) -> ! {
    let out_path = args
        .out_path
        .clone()
        .unwrap_or_else(|| "VALIDATE_report.json".to_string());
    let lab = Lab::for_request(request);
    let t = Instant::now();
    eprintln!(
        "[run_all] validating {} properties x {} workloads ({:?} input) ...",
        bench::validate::PROPERTIES.len(),
        request.workloads.len(),
        request.input,
    );
    let report = bench::run_conformance(
        &lab,
        &request.workloads,
        request.input,
        &request.validate_thresholds.unwrap_or_default(),
    );
    for r in &report.results {
        eprintln!(
            "[run_all] {} {}/{}: {}",
            if r.passed { "PASS" } else { "FAIL" },
            r.workload,
            r.property,
            r.detail
        );
    }
    if let Some(parent) = Path::new(&out_path).parent() {
        if !parent.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(parent);
        }
    }
    if let Err(e) = std::fs::write(&out_path, report.to_json().to_string_pretty()) {
        eprintln!("[run_all] cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out_path}");
    let failures = report.failures().len();
    eprintln!(
        "[run_all] validate: {}/{} properties held in {:.1?}",
        report.results.len() - failures,
        report.results.len(),
        t.elapsed()
    );
    if failures > 0 {
        eprintln!("[run_all] {failures} conformance violation(s); exiting 2");
        std::process::exit(2);
    }
    std::process::exit(0);
}

fn main() {
    let args: RunAllArgs = match parse_args(std::env::args().skip(1)) {
        Ok(Parsed::Run(a)) => a,
        Ok(Parsed::Help) => {
            println!("{USAGE}");
            return;
        }
        Err(e) => fail_usage(&e),
    };
    let flags = RequestOverlay {
        jobs: args.jobs,
        store_path: args.store.clone(),
        workload_files: (!args.workload_files.is_empty()).then(|| args.workload_files.clone()),
        ..RequestOverlay::default()
    };
    let request =
        SweepRequest::resolve(args.config.as_deref(), flags).unwrap_or_else(|e| fail_usage(&e));
    if args.validate {
        run_validate(&args, &request);
    }
    let jobs = request.jobs.unwrap_or_else(bench::default_jobs);
    let out_path = args
        .out_path
        .unwrap_or_else(|| "EXPERIMENTS.md".to_string());

    let lab = Lab::for_request(&request);
    let lab_dir = Path::new(request.lab_dir.as_deref().unwrap_or(Manifest::DEFAULT_DIR));
    let t0 = Instant::now();
    let mut failures = 0usize;

    // Persistent result store (--store or the --config `store.path`):
    // opening runs startup recovery; the report artifact lands next to
    // the log.
    let store = request.store_path.as_deref().map(ResultStore::open);
    if let Some(store) = &store {
        let rec = store.recovery();
        eprintln!(
            "[run_all] result store {}: {} committed cells, {} quarantined, {}",
            store.path().display(),
            store.len(),
            rec.quarantined(),
            if rec.healed {
                "healed"
            } else if rec.is_clean() {
                "clean"
            } else {
                "degraded"
            },
        );
        if let Some(reason) = store.degraded() {
            eprintln!("[run_all] result store is memory-only: {reason}");
        }
    }

    // Phase 1 — fault-tolerant sweep over the shared grid, with
    // incremental manifest flushes and optional resume. A filtered
    // report run skips it: the filter may need none of these cells.
    let trace_dir = args.trace_dir.as_ref().map(std::path::PathBuf::from);
    let mut sweep_outcomes: Vec<RunOutcome> = Vec::new();
    if args.filter.is_none() || args.sweep_only {
        let mut plan = request.plan("run_all");
        if let Some(f) = &args.filter {
            plan = plan.filtered(f);
            if plan.cells.is_empty() {
                // A filter that names no cell is usually a misspelled
                // workload; the registry can often say which one.
                if let Some(s) = workloads::registry::suggest(f) {
                    fail_usage(&format!(
                        "no cells matched --filter {f} (did you mean {s:?}?)"
                    ));
                }
                fail_usage(&format!("no cells matched --filter {f}"));
            }
        }
        let prior = if args.resume {
            let m = Manifest::load(lab_dir, &plan.name);
            if m.is_none() {
                eprintln!("[run_all] --resume: no prior manifest, running everything");
            }
            m
        } else {
            None
        };
        let writer = ManifestWriter::in_dir(lab_dir, plan.name.clone());
        eprintln!(
            "[run_all] sweeping {} cells on {jobs} workers ...",
            plan.cells.len()
        );
        let t = Instant::now();
        let exec = plan.run_fault_tolerant(
            &lab,
            jobs,
            &SweepOptions {
                resume_from: prior.as_ref(),
                writer: Some(&writer),
                trace_dir: trace_dir.as_deref(),
                store: store.as_ref(),
                retry: request.retry,
            },
        );
        eprintln!(
            "[run_all] sweep: {} ran, {} skipped (resume), {} failed in {:.1?}",
            exec.ran,
            exec.skipped,
            exec.failed(),
            t.elapsed()
        );
        if store.is_some() {
            eprintln!("[run_all] result store served {} cell(s)", exec.store_hits);
        }
        for f in exec.outcomes.iter().filter_map(RunOutcome::failure) {
            eprintln!(
                "[run_all] FAILED {} {} {}: [{}] {}",
                f.workload, f.input, f.system, f.error_kind, f.error
            );
        }
        failures += exec.failed();
        sweep_outcomes = exec.outcomes;
    }

    // Store maintenance: optional offline compaction, then the
    // quarantine/heal report artifact the chaos CI job uploads.
    if let Some(store) = &store {
        if request.store_compact {
            match store.compact() {
                Ok(stats) => eprintln!(
                    "[run_all] store compacted: {} live records, {} -> {} bytes",
                    stats.live_records, stats.bytes_before, stats.bytes_after
                ),
                Err(e) => eprintln!("[run_all] store compaction failed: {e}"),
            }
        }
        match store.write_report() {
            Ok(path) => eprintln!("[run_all] store report: {}", path.display()),
            Err(e) => eprintln!("[run_all] store report write failed: {e}"),
        }
    }

    if args.sweep_only {
        eprintln!(
            "[run_all] sweep-only run done in {:.1?} ({jobs} worker threads)",
            t0.elapsed()
        );
        if failures > 0 {
            std::process::exit(1);
        }
        return;
    }

    // Phase 2 — generate sections concurrently; collect in declaration
    // order. A panicking section becomes an inline error block.
    type Section<'a> = (&'a str, fn(&Lab) -> String);
    let mut sections: Vec<Section> = vec![
        ("Figure 1", single::fig01),
        ("Figure 2 + Table 1", single::fig02_tab01),
        ("Figure 4", single::fig04),
        ("Figure 7 + Table 6", single::fig07_tab06),
        ("Figure 8", single::fig08),
        ("Figure 9", single::fig09),
        ("Figure 10", single::fig10),
        ("Table 7", |_lab| single::tab07()),
        ("Figure 11", compare::fig11),
        ("Figure 12", compare::fig12),
        ("Figure 13", compare::fig13),
        ("Section 6.1.6", single::sec616),
        ("Section 6.3", compare::sec63),
        ("Section 6.7", misc::sec67),
        ("Section 7.1", compare::sec71),
        ("Section 7.2", compare::sec72),
        ("Section 7.4", compare::sec74),
        ("Figure 14", multi::fig14),
        ("Figure 15", multi::fig15),
    ];
    if let Some(f) = &args.filter {
        sections.retain(|(name, _)| name.to_lowercase().contains(f));
        if sections.is_empty() {
            fail_usage(&format!("no section matches --filter {f}"));
        }
    }

    let n = sections.len();
    let next = AtomicUsize::new(0);
    let mut slots: Vec<std::sync::OnceLock<Result<String, String>>> = Vec::new();
    slots.resize_with(n, std::sync::OnceLock::new);
    std::thread::scope(|s| {
        for _ in 0..jobs.clamp(1, n) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let (name, f) = sections[i];
                let t = Instant::now();
                eprintln!("[run_all] {name} ...");
                let text = catch_unwind(AssertUnwindSafe(|| f(&lab))).map_err(|payload| {
                    payload
                        .downcast_ref::<String>()
                        .cloned()
                        .or_else(|| payload.downcast_ref::<&str>().map(ToString::to_string))
                        .unwrap_or_else(|| "non-string panic payload".to_string())
                });
                eprintln!("[run_all] {name} done in {:.1?}", t.elapsed());
                let _ = slots[i].set(text);
            });
        }
    });

    let mut report = String::from(
        "# EXPERIMENTS — paper vs reproduction\n\n\
         Generated by `cargo run --release -p bench --bin run_all`. Each section\n\
         reproduces one table or figure of *Techniques for Bandwidth-Efficient\n\
         Prefetching of Linked Data Structures in Hybrid Prefetching Systems*\n\
         (HPCA 2009) on the synthetic workload stand-ins (see DESIGN.md for the\n\
         substitution inventory and calibration notes). Lines beginning with\n\
         `paper:` quote the original result for comparison; absolute numbers are\n\
         not expected to match, the win/loss structure is.\n\n",
    );
    for (slot, (name, _)) in slots.into_iter().zip(&sections) {
        match slot.into_inner().expect("every section generated") {
            Ok(text) => report.push_str(&text),
            Err(msg) => {
                failures += 1;
                eprintln!("[run_all] FAILED section {name}: {msg}");
                report.push_str(&format!("## {name}\n\n**GENERATION FAILED**: {msg}\n"));
            }
        }
        report.push('\n');
    }
    report.push_str(&format!(
        "---\nTotal generation time: {:.1?} ({jobs} worker threads).\n",
        t0.elapsed()
    ));
    std::fs::write(&out_path, &report).expect("write report");

    // Final manifest: the sweep's outcomes verbatim (success records may
    // carry --trace-dir artifact paths, which the lab cache does not
    // know about) plus every additional cell the sections ran.
    let swept: std::collections::HashSet<_> =
        sweep_outcomes.iter().map(RunOutcome::sort_key).collect();
    let mut records: Vec<RunOutcome> = sweep_outcomes;
    records.extend(
        lab.records()
            .into_iter()
            .map(RunOutcome::Success)
            .filter(|o| !swept.contains(&o.sort_key())),
    );
    records.sort_by_key(RunOutcome::sort_key);
    let manifest = Manifest {
        name: "run_all".to_string(),
        records,
    };
    match manifest.write(lab_dir) {
        Ok(path) => eprintln!("[lab] manifest: {}", path.display()),
        Err(e) => eprintln!("[lab] manifest write failed: {e}"),
    }
    println!("wrote {out_path}");
    if failures > 0 {
        eprintln!("[run_all] {failures} failure(s); exiting nonzero");
        std::process::exit(1);
    }
}
