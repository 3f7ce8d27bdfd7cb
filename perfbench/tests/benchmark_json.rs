//! `BENCHMARK.json` and the program agree on every workload and metric,
//! so a result line always carries exactly the metrics the file names.

use npqm_bench::json::Json;
use npqm_perfbench::output::{END_TO_END, PER_LAYER};
use npqm_perfbench::workloads::Workload;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names_units(j: &Json, key: &str) -> Vec<(String, String)> {
    j.get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

#[test]
fn metrics_match_the_program() {
    let j = benchmark_json();
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(names_units(&j, "end_to_end"), own(&END_TO_END));
    assert_eq!(names_units(&j, "per_layer"), own(&PER_LAYER));
}

#[test]
fn workloads_match_the_program() {
    let j = benchmark_json();
    let listed: Vec<&str> = j
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workload list")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    let own: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(listed, own);
    for w in Workload::ALL {
        assert_eq!(Workload::from_name(w.name()), Some(w));
    }
}
