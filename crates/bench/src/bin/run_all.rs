//! The one report driver: regenerates every section of the paper's
//! evaluation — each table and figure, the §4 contention measurement and
//! the "Ablations and extensions" block, in the order of
//! [`bench::experiments::SECTIONS`] — and writes the combined report to
//! the path given as the last positional argument. With no path, a full
//! run writes `EXPERIMENTS.md` (in the current directory) and a
//! `--filter` run prints its sections to stdout, so a partial report
//! never replaces the full one. Also writes the run manifest of the
//! `Lab`'s cells (workload × input × system runs) to
//! `<lab_dir>/run_all.json` (default `target/lab`). Runs that are not
//! cells stay out of it: the variant-study runs (ablations, the §6.1.6
//! ref-profile runs, the Figure 10 profiled runs, the conformance
//! corners) and the multi-core mixes.
//!
//! ```text
//! cargo run --release -p bench --bin run_all [-- [--config FILE]
//!                                               [--workload-file FILE]...
//!                                               [--jobs N] [--filter SUBSTR]
//!                                               [--sweep] [--validate]
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
//!    partial manifest. With `--store PATH` every success is committed
//!    to the result store, and a rerun on the same store serves the
//!    committed cells (same machine-config hash and workload file
//!    contents) and simulates only the rest — that is how a killed or
//!    failed sweep restarts. `--sweep` stops after this phase; combined
//!    with `--filter` it runs only the matching cells, and a filter
//!    matching no cell exits 2.
//!    `--trace-dir DIR` runs every cell with the observability layer
//!    enabled and writes per-cell `timeseries.json` + `obs.jsonl` under
//!    `DIR`; the manifest records the artifact paths.
//! 2. **Sections**: report sections are generated concurrently on the
//!    same pool ([`bench::experiments::run_sections`]; mostly cache hits
//!    after the sweep); a failing section is reported inline in the
//!    output instead of aborting the report.
//!
//! The process exits 0 only if every sweep cell and every section
//! succeeded; any failure exits 1 (usage errors — including an invalid
//! `--config` document — exit 2).
//!
//! Configuration resolves through one typed [`bench::SweepRequest`]
//! (the same schema-versioned document `sweepd` accepts over HTTP):
//! [`SweepRequest::resolve`] writes the flags into the `--config FILE`
//! document, which overrides the defaults, and parses it once.
//! The resolved request configures everything the run uses — the lab,
//! the retry policy, the manifest directory, the worker count and the
//! conformance thresholds; the environment configures nothing. The
//! sweep grid defaults to the paper's pointer benchmarks × the seven
//! headline systems on the ref input. The section text is identical at
//! any thread count (only the trailing timing line varies): results are
//! assembled in section order and every simulation is memoized
//! process-wide by the `Lab`. `--filter` keeps only sections whose name
//! contains the substring (case-insensitive) and skips the sweep phase —
//! `--filter "figure 7"` regenerates Figure 7 + Table 6, `--filter 6.7`
//! the §6.7 non-pointer study, `--filter ablation` the ablations — and a
//! filter matching no section exits 2.

use std::path::Path;
use std::time::Instant;

use bench::cli::{parse_args, Parsed, RunAllArgs, USAGE};
use bench::experiments::{run_sections, Section, SECTIONS};
use bench::{Lab, Manifest, ManifestWriter, ResultStore, RunOutcome, SweepOptions, SweepRequest};
use sim_core::frame::atomic_write;

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
        request.jobs.unwrap_or_else(bench::default_jobs),
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
    if let Err(e) = atomic_write(&out_path, report.to_json().to_string_pretty()) {
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
    let request = SweepRequest::resolve(&args.request).unwrap_or_else(|e| fail_usage(&e));
    if args.validate {
        run_validate(&args, &request);
    }
    let jobs = request.jobs.unwrap_or_else(bench::default_jobs);
    // `None` (a filtered run with no path): print the report to stdout.
    let out_path = args
        .out_path
        .or_else(|| args.filter.is_none().then(|| "EXPERIMENTS.md".to_string()));

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
    // incremental manifest flushes and optional store hits. A filtered
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
                writer: Some(&writer),
                trace_dir: trace_dir.as_deref(),
                store: store.as_ref(),
                retry: request.retry,
            },
        );
        eprintln!(
            "[run_all] sweep: {} ran, {} failed in {:.1?}",
            exec.ran,
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

    // Phase 2 — generate sections concurrently; collect in table order.
    // A panicking section becomes an inline error block.
    let mut sections: Vec<Section> = SECTIONS.to_vec();
    if let Some(f) = &args.filter {
        sections.retain(|(name, _)| name.to_lowercase().contains(f));
        if sections.is_empty() {
            fail_usage(&format!("no section matches --filter {f}"));
        }
    }
    let texts = run_sections(&lab, &sections, jobs);

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
    for (text, (name, _)) in texts.into_iter().zip(&sections) {
        match text {
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
    match &out_path {
        Some(path) => atomic_write(path, &report).expect("write report"),
        None => print!("{report}"),
    }

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
    if let Some(path) = &out_path {
        println!("wrote {path}");
    }
    if failures > 0 {
        eprintln!("[run_all] {failures} failure(s); exiting nonzero");
        std::process::exit(1);
    }
}
