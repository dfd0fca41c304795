//! Trace tooling: export a workload trace as a binary external trace,
//! reopen it, and verify the streamed replay is bit-identical.
//!
//! ```text
//! cargo run --release -p ecdp --example trace_tools [workload] [file.xtrc]
//! ```
//!
//! The `.xtrc` file is the versioned *external* streamed-trace format
//! accepted by `run_all --workload-file`: the example exports it, then
//! replays it through `Machine::run_streamed` in bounded windows and
//! compares against the resident run. This is how a `.xtrc` fixture for
//! the bring-your-own-workload frontend is fabricated from a built-in
//! kernel.

use std::fs::File;
use std::io::BufWriter;

use sim_core::{ExternalTrace, Machine, MachineConfig, XtraceWriter};
use workloads::{registry, InputSet};

fn main() -> std::io::Result<()> {
    let name = std::env::args().nth(1).unwrap_or_else(|| "mst".to_string());
    let path = std::env::args()
        .nth(2)
        .unwrap_or_else(|| format!("target/{name}-train.xtrc"));
    if !path.ends_with(".xtrc") {
        eprintln!("output path {path} must end in .xtrc");
        std::process::exit(2);
    }
    let workload = registry::lookup(&name).unwrap_or_else(|| {
        eprintln!("unknown workload {name}");
        std::process::exit(1);
    });

    println!("recording `{name}` (train input) ...");
    let trace = workload.generate(InputSet::Train);
    println!(
        "  {} ops / {} instructions / {} resident pages",
        trace.ops.len(),
        trace.instructions,
        trace.initial_memory.resident_pages()
    );

    let a = Machine::new(MachineConfig::default())
        .run(&trace)
        .expect("run");

    let mut w = XtraceWriter::new(BufWriter::new(File::create(&path)?), &trace.initial_memory)?;
    for op in &trace.ops {
        w.push(op)?;
    }
    w.finish()?;
    let bytes = std::fs::metadata(&path)?.len();
    println!(
        "  exported external trace {path} ({:.1} MB)",
        bytes as f64 / 1e6
    );

    let mut xt = ExternalTrace::open(&path).unwrap_or_else(|e| {
        eprintln!("reopen failed: {e}");
        std::process::exit(1);
    });
    println!(
        "  reopened: {} ops, content hash {:016x}",
        xt.op_count(),
        xt.content_hash()
    );
    let b = Machine::new(MachineConfig::default())
        .run_streamed(&mut xt)
        .expect("streamed run");
    assert_eq!(a, b, "streamed replay must match the resident run");
    println!(
        "  replay check: {} cycles streamed in a {}-op window — identical ✓",
        b.cycles,
        xt.max_resident_ops()
    );
    Ok(())
}
