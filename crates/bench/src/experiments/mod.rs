//! One generator per table/figure of the paper's evaluation.
//!
//! Each function takes a [`crate::Lab`] and returns a self-contained text
//! report (markdown tables plus commentary lines starting with `paper:`
//! that state the result the original reported, for side-by-side reading in
//! `EXPERIMENTS.md`). [`SECTIONS`] lists them in report order and
//! [`run_sections`] generates any subset of them on the worker pool; the
//! `run_all` binary is the one driver of both.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use crate::sweep::{panic_message, par_map};
use crate::Lab;

pub mod ablation;
pub mod compare;
pub mod misc;
pub mod multi;
pub mod single;

/// One report section: the name `run_all --filter` matches against and
/// the generator that renders its text.
pub type Section = (&'static str, fn(&Lab) -> String);

/// Every section of `EXPERIMENTS.md`, in report order.
pub const SECTIONS: [Section; 21] = [
    ("Figure 1", single::fig01),
    ("Figure 2 + Table 1", single::fig02_tab01),
    ("Figure 4", single::fig04),
    ("Section 4 contention", single::sec4_contention),
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
    ("Ablations and extensions", ablation::ablations),
];

/// Generates `sections` against `lab` on up to `jobs` worker threads and
/// returns their texts in `sections` order, whatever the thread count.
///
/// A panicking generator (e.g. a wedged simulation surfaced through
/// [`Lab::run_on`]) yields `Err(panic message)` at its index while the
/// other sections complete.
pub fn run_sections(lab: &Lab, sections: &[Section], jobs: usize) -> Vec<Result<String, String>> {
    par_map(sections, jobs, |&(name, generate)| {
        let t = Instant::now();
        eprintln!("[run_all] {name} ...");
        let text = catch_unwind(AssertUnwindSafe(|| generate(lab))).map_err(panic_message);
        eprintln!("[run_all] {name} done in {:.1?}", t.elapsed());
        text
    })
}

/// Names of the 15 pointer-intensive workloads, in Table 1 order.
pub const POINTER_BENCHES: [&str; 15] = [
    "perlbench",
    "gcc",
    "mcf",
    "astar",
    "xalancbmk",
    "omnetpp",
    "parser",
    "art",
    "ammp",
    "bisort",
    "health",
    "mst",
    "perimeter",
    "voronoi",
    "pfast",
];

/// Geometric-mean speedups with and without `health` (the paper reports
/// both because `health` skews averages).
pub fn gmean_with_without_health(pairs: &[(&str, f64)]) -> (f64, f64) {
    let all: Vec<f64> = pairs.iter().map(|(_, v)| *v).collect();
    let no_health: Vec<f64> = pairs
        .iter()
        .filter(|(n, _)| *n != "health")
        .map(|(_, v)| *v)
        .collect();
    (crate::gmean(&all), crate::gmean(&no_health))
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn bench_list_matches_table1_order() {
        assert_eq!(POINTER_BENCHES.len(), 15);
        assert_eq!(POINTER_BENCHES[0], "perlbench");
        assert_eq!(POINTER_BENCHES[14], "pfast");
    }

    #[test]
    fn run_sections_keeps_order_and_isolates_a_panicking_section() {
        let sections: [Section; 4] = [
            ("a", |_| "A".to_string()),
            ("b", |_| panic!("section b broke")),
            ("c", |_| "C".to_string()),
            ("d", |_| "D".to_string()),
        ];
        let lab = Lab::new();
        for jobs in [1, 4] {
            let out = run_sections(&lab, &sections, jobs);
            assert_eq!(
                out,
                vec![
                    Ok("A".to_string()),
                    Err("section b broke".to_string()),
                    Ok("C".to_string()),
                    Ok("D".to_string()),
                ],
                "jobs {jobs}"
            );
        }
    }

    #[test]
    fn sections_are_uniquely_named_in_paper_order() {
        let names: Vec<&str> = SECTIONS.iter().map(|(name, _)| *name).collect();
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "{names:?}");
        let at = |n: &str| names.iter().position(|&m| m == n).unwrap();
        assert_eq!(at("Section 4 contention"), at("Figure 4") + 1);
        assert_eq!(at("Ablations and extensions"), names.len() - 1);
    }

    #[test]
    fn health_exclusion() {
        let pairs = [("health", 4.0), ("mst", 1.0)];
        let (with, without) = gmean_with_without_health(&pairs);
        assert!((with - 2.0).abs() < 1e-12);
        assert!((without - 1.0).abs() < 1e-12);
    }
}
