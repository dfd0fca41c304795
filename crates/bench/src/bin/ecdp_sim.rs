//! `ecdp-sim` — a small command-line front end for the simulator.
//!
//! ```text
//! cargo run --release -p bench --bin ecdp_sim -- list
//! cargo run --release -p bench --bin ecdp_sim -- profile mst
//! cargo run --release -p bench --bin ecdp_sim -- run mst stream+ecdp+throttle
//! cargo run --release -p bench --bin ecdp_sim -- compare mst
//! ```

use ecdp::system::SystemKind;

fn usage() -> ! {
    eprintln!(
        "usage: ecdp_sim <command>\n\
         \n\
         commands:\n\
         \x20 list                      list workloads and system labels\n\
         \x20 profile <workload>        run the profiling pass; print PG summary\n\
         \x20 run <workload> <system>   simulate one workload on one system\n\
         \x20 compare <workload>        simulate the main systems side by side"
    );
    std::process::exit(2);
}

fn print_stats(label: &str, s: &sim_core::RunStats, base_ipc: Option<f64>) {
    let speed = base_ipc.map_or(String::from("      -"), |b| {
        format!("{:>6.2}x", s.ipc() / b)
    });
    println!(
        "{label:<30} IPC {:>7.3}  {speed}  BPKI {:>7.1}  L2-miss {:>8}",
        s.ipc(),
        s.bpki(),
        s.l2_demand_misses
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let lab = bench::Lab::new();
    match args.first().map(String::as_str) {
        Some("list") => {
            println!("pointer-intensive workloads:");
            for w in workloads::registry::suite(workloads::registry::SUITE_POINTER) {
                println!("  {:<12} {}", w.name(), w.describe());
            }
            println!("non-pointer workloads:");
            for w in workloads::registry::suite(workloads::registry::SUITE_STREAMING) {
                println!("  {:<12} {}", w.name(), w.describe());
            }
            println!("systems:");
            for k in SystemKind::all() {
                println!("  {}", k.label());
            }
        }
        Some("profile") => {
            let name = args.get(1).cloned().unwrap_or_else(|| usage());
            let profile = lab.profile(&name).clone();
            let (b, h) = profile.counts();
            let hist = profile.usefulness_histogram();
            println!("workload {name}: {b} beneficial / {h} harmful pointer groups");
            println!("usefulness histogram [0-25 | 25-50 | 50-75 | 75-100]: {hist:?}");
            let hints = profile.hint_table();
            println!("hint vectors for {} static loads:", hints.len());
            let mut rows: Vec<_> = hints.iter().collect();
            rows.sort_by_key(|(pc, _)| **pc);
            for (pc, v) in rows {
                println!(
                    "  pc {pc:#07x}: pos {:016b} neg {:016b}",
                    v.positive, v.negative
                );
            }
        }
        Some("run") => {
            let name = args.get(1).cloned().unwrap_or_else(|| usage());
            let system = args.get(2).cloned().unwrap_or_else(|| usage());
            let Some(kind) = SystemKind::from_label(&system) else {
                eprintln!("unknown system `{system}`; see `ecdp_sim list`");
                std::process::exit(2);
            };
            let s = lab.run(&name, kind);
            print_stats(kind.label(), &s, None);
            for (i, p) in s.prefetchers.iter().enumerate() {
                println!(
                    "  {:<10} issued {:>9} used {:>9} late {:>8} acc {:>5.1}% cov {:>5.1}%",
                    p.name,
                    p.issued,
                    p.used,
                    p.late,
                    s.prefetch_accuracy(i) * 100.0,
                    s.prefetch_coverage(i) * 100.0
                );
            }
        }
        Some("compare") => {
            let name = args.get(1).cloned().unwrap_or_else(|| usage());
            let base = lab.run(&name, SystemKind::StreamOnly).ipc();
            for kind in [
                SystemKind::NoPrefetch,
                SystemKind::StreamOnly,
                SystemKind::StreamCdp,
                SystemKind::StreamEcdp,
                SystemKind::StreamEcdpThrottled,
                SystemKind::GhbAlone,
                SystemKind::StreamMarkov,
                SystemKind::OracleLds,
            ] {
                let s = lab.run(&name, kind);
                print_stats(kind.label(), &s, Some(base));
            }
        }
        _ => usage(),
    }
}
