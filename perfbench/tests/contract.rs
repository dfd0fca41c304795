//! `BENCHMARK.json` must describe exactly what the benchmark emits.

use perfbench::report::{per_layer_specs, END_TO_END};
use sim_core::Json;

fn benchmark_json() -> Json {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn entries(j: &Json, key: &str) -> Vec<Json> {
    j.get(key).and_then(Json::as_arr).expect(key).to_vec()
}

fn field<'a>(e: &'a Json, key: &str) -> &'a str {
    e.get(key).and_then(Json::as_str).expect(key)
}

#[test]
fn end_to_end_metrics_match_the_code() {
    let j = benchmark_json();
    let listed: Vec<(String, String)> = entries(&j, "end_to_end")
        .iter()
        .map(|e| (field(e, "name").to_string(), field(e, "unit").to_string()))
        .collect();
    let emitted: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(listed, emitted);
    let mut setup_bound = 0.0;
    let mut max_bound: f64 = 0.0;
    for e in entries(&j, "end_to_end") {
        let bound = e.get("bound").and_then(Json::as_f64).expect("bound");
        assert!(
            bound > 0.0 && bound <= 0.25,
            "{}: bound {bound}",
            field(&e, "name")
        );
        if field(&e, "name") == "setup_s" {
            setup_bound = bound;
        }
        max_bound = max_bound.max(bound);
    }
    assert_eq!(setup_bound, max_bound, "setup_s carries the largest bound");
}

#[test]
fn per_layer_metrics_match_the_code() {
    let j = benchmark_json();
    let listed: Vec<(String, String, String)> = entries(&j, "per_layer")
        .iter()
        .map(|e| {
            (
                field(e, "name").to_string(),
                field(e, "unit").to_string(),
                field(e, "better").to_string(),
            )
        })
        .collect();
    let emitted: Vec<(String, String, String)> = per_layer_specs()
        .into_iter()
        .map(|(n, u, b)| (n, u.to_string(), b.to_string()))
        .collect();
    assert_eq!(listed, emitted);
}

#[test]
fn workloads_and_command_are_the_ones_main_accepts() {
    let j = benchmark_json();
    let names: Vec<String> = entries(&j, "workloads")
        .iter()
        .map(|e| field(e, "name").to_string())
        .collect();
    assert_eq!(
        names,
        ["pointer-grid", "stream-grid", "service-mixed", "quad-core"]
    );
    let command: Vec<String> = entries(&j, "command")
        .iter()
        .map(|c| c.as_str().expect("string").to_string())
        .collect();
    assert_eq!(command, ["bash", "perfbench/run.sh"]);
}
