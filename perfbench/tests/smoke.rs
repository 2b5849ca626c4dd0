//! A tiny-size run of every workload, untraced and traced, through the
//! same entry point the command line uses; and the metric tables
//! against `BENCHMARK.json`.

mod common;

use qolsr_perfbench::bench::{self, Specs, Workload, END_TO_END, PER_LAYER};
use qolsr_perfbench::json::Value;

/// All three tiny workloads.
fn tiny_specs() -> Specs {
    Specs {
        flood: common::tiny_flood(),
        mobile: common::tiny_mobile(),
        paper_static: common::tiny_static(),
    }
}

fn check(workload: Workload, traced: bool) {
    let specs = tiny_specs();
    let out = bench::run(workload, &specs, 5, 0.01, traced, None);
    assert!(
        out.correct,
        "{} traced={traced}: {:?}",
        workload.name(),
        out.log
    );
    assert_eq!(out.failed, 0);
    assert!(out.attempted > 0);

    let table: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
    let names: Vec<&str> = out.metrics.iter().map(|m| m.0).collect();
    let expected: Vec<&str> = table.iter().map(|m| m.0).collect();
    assert_eq!(names, expected);
    if !traced {
        for &(name, value, _) in &out.metrics {
            assert!(value > 0.0, "{} {name} = {value}", workload.name());
        }
    }

    // The result line carries exactly the four keys, and reads back.
    let line = out.result().to_json();
    let parsed = Value::parse(&line).expect("result line is JSON");
    let Value::Obj(pairs) = &parsed else {
        panic!("result is an object")
    };
    let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(parsed, out.result());
}

#[test]
fn flood_smoke() {
    check(Workload::Flood, false);
    check(Workload::Flood, true);
}

#[test]
fn mobile_smoke() {
    check(Workload::Mobile, false);
    check(Workload::Mobile, true);
}

#[test]
fn paper_static_smoke() {
    check(Workload::PaperStatic, false);
    check(Workload::PaperStatic, true);
}

#[test]
fn static_layers_are_absent_from_live_runs_and_back() {
    let specs = tiny_specs();
    let value = |out: &bench::Outcome, name: &str| {
        out.metrics.iter().find(|m| m.0 == name).expect("metric").1
    };
    let stat = bench::run(Workload::PaperStatic, &specs, 5, 0.01, true, None);
    assert_eq!(value(&stat, "sim.engine.self_ms"), 0.0);
    assert_eq!(value(&stat, "sim.engine.events"), 0.0);
    assert!(value(&stat, "core.selector.fnbp.select_ms") > 0.0);
    let flood = bench::run(Workload::Flood, &specs, 5, 0.01, true, None);
    assert_eq!(value(&flood, "core.selector.fnbp.select_ms"), 0.0);
    assert!(value(&flood, "sim.engine.self_ms") > 0.0);
    assert!(value(&flood, "olsr.node.msg.tc_calls") > 0.0);
}

#[test]
fn tables_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = Value::parse(&text).expect("BENCHMARK.json parses");
    let listed = |key: &str| -> Vec<(String, String)> {
        let Some(Value::Arr(items)) = doc.get(key) else {
            panic!("{key} is an array")
        };
        items
            .iter()
            .map(|m| match (m.get("name"), m.get("unit")) {
                (Some(Value::Str(n)), Some(Value::Str(u))) => (n.clone(), u.clone()),
                _ => panic!("{key} entries have a name and a unit"),
            })
            .collect()
    };
    let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter()
            .map(|&(n, u)| (n.to_owned(), u.to_owned()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), own(&END_TO_END));
    assert_eq!(listed("per_layer"), own(&PER_LAYER));
    let Some(Value::Arr(workloads)) = doc.get("workloads") else {
        panic!("workloads is an array")
    };
    let names: Vec<&Value> = workloads.iter().filter_map(|w| w.get("name")).collect();
    let own_names: Vec<Value> = Workload::ALL
        .iter()
        .map(|w| Value::from(w.name()))
        .collect();
    assert_eq!(names, own_names.iter().collect::<Vec<_>>());
}
