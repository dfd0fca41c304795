//! `perfbench` — runs one benchmark workload and prints its result as
//! the last line of stdout.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--sweepd PATH]
//! ```
//!
//! Workloads: `pointer-grid`, `stream-grid`, `service-mixed`,
//! `quad-core`. The process exits 1 when a correctness check fails and 2
//! on a usage error. Progress, digests and the paper reference go to
//! stderr. Scratch files live under `.bench_work/` in the current
//! directory and are removed at the end, except the traced run's spans
//! (`.bench_work/spans-<workload>-<seed>.jsonl`).

use std::path::PathBuf;

use perfbench::{grid, quad, service, RunConfig};

const USAGE: &str = "usage: perfbench --workload pointer-grid|stream-grid|service-mixed|quad-core \
     --seed N --seconds S --trace 0|1 [--sweepd PATH]";

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut traced = false;
    let mut sweepd = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage(&format!("{a} needs a value")))
        };
        match a.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => {
                seed = Some(
                    value()
                        .parse::<u64>()
                        .unwrap_or_else(|_| usage("--seed must be an integer")),
                );
            }
            "--seconds" => {
                seconds = value()
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .unwrap_or_else(|| usage("--seconds must be positive"));
            }
            "--trace" => {
                traced = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                };
            }
            "--sweepd" => sweepd = Some(PathBuf::from(value())),
            other => usage(&format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    let seed = seed.unwrap_or_else(|| usage("--seed is required"));

    let root = std::env::current_dir().unwrap_or_else(|e| usage(&format!("current dir: {e}")));
    let scratch = root.join(".bench_work");
    let work_dir = scratch.join(format!("{workload}-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("perfbench: creating {}: {e}", work_dir.display());
        std::process::exit(1);
    }
    // Manifests land in `target/lab` under the working directory; keep
    // them inside the run's scratch directory.
    if let Err(e) = std::env::set_current_dir(&work_dir) {
        eprintln!("perfbench: entering {}: {e}", work_dir.display());
        std::process::exit(1);
    }
    let cfg = RunConfig {
        seed,
        seconds,
        traced,
        spans_path: scratch.join(format!("spans-{workload}-{seed}.jsonl")),
        sweepd: sweepd.map(|p| if p.is_absolute() { p } else { root.join(p) }),
        work_dir: work_dir.clone(),
    };
    let mut report = match workload.as_str() {
        "pointer-grid" => grid::run(&grid::pointer_suite(), &cfg),
        "stream-grid" => grid::run(&grid::stream_suite(), &cfg),
        "service-mixed" => service::run(&cfg),
        "quad-core" => quad::run(&cfg),
        other => usage(&format!("unknown workload {other:?}")),
    };
    let _ = std::env::set_current_dir(&root);
    let _ = std::fs::remove_dir_all(&work_dir);
    let line = report.to_json_line(traced);
    for e in &report.errors {
        eprintln!("perfbench: FAILED: {e}");
    }
    println!("{line}");
    if !report.correct() {
        std::process::exit(1);
    }
}
