//! Smoke-length runs of every workload, bare and traced: each must pass
//! its own correctness checks and print every metric `BENCHMARK.json`
//! names for its mode, with that metric's unit.

use std::process::Command;

const MANIFEST: &str = include_str!("../../BENCHMARK.json");

/// `(name, unit)` of every entry in the manifest's `section` array.
fn declared(section: &str) -> Vec<(String, String)> {
    let start = MANIFEST
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &MANIFEST[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

/// The string value of `"key": "value"` in a flat JSON object fragment.
fn field(obj: &str, key: &str) -> String {
    let at = obj
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("no {key} in {obj}"));
    let rest = &obj[at + key.len() + 2..];
    let open = rest.find('"').expect("value opens") + 1;
    let close = open + rest[open..].find('"').expect("value closes");
    rest[open..close].to_string()
}

fn workloads() -> Vec<String> {
    let start = MANIFEST.find("\"workloads\"").expect("workloads listed");
    let body = &MANIFEST[start..];
    let body = &body[..body.find(']').expect("workloads close")];
    body.split('{').skip(1).map(|e| field(e, "name")).collect()
}

fn run(workload: &str, trace: bool) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.6"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().expect("a result line").to_string()
}

fn check(workload: &str, trace: bool, section: &str) {
    let line = run(workload, trace);
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
    assert!(line.contains("\"failed\": 0,"), "{line}");
    let metrics = &line[line.find("\"metrics\"").expect("metrics object")..];
    let declared = declared(section);
    assert!(!declared.is_empty());
    for (name, unit) in &declared {
        let entry = format!("\"{name}\": {{\"value\": ");
        let at = metrics
            .find(&entry)
            .unwrap_or_else(|| panic!("{workload}: {name} missing from {line}"));
        let rest = &metrics[at + entry.len()..];
        let end = rest.find(',').expect("value ends");
        let value: f64 = rest[..end]
            .parse()
            .unwrap_or_else(|e| panic!("{workload}: {name} value: {e}"));
        assert!(value.is_finite(), "{workload}: {name} = {value}");
        assert!(
            rest[end..].starts_with(&format!(", \"unit\": \"{unit}\"}}")),
            "{workload}: {name} must carry unit {unit}: {line}"
        );
    }
    let printed = metrics.matches("\"value\": ").count();
    assert_eq!(
        printed,
        declared.len(),
        "{workload}: exactly the declared metrics"
    );
}

#[test]
fn every_workload_prints_its_end_to_end_metrics() {
    for w in workloads() {
        check(&w, false, "end_to_end");
    }
}

#[test]
fn every_workload_prints_its_per_layer_metrics_when_traced() {
    for w in workloads() {
        check(&w, true, "per_layer");
    }
}
