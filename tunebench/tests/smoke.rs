//! Smoke-size self-test: every workload, untraced and traced, emits
//! exactly the metrics `BENCHMARK.json` names, each with its unit, passes
//! its output checks, and the traced methodology runs compute the
//! per-search replay residual.

use serde::Value;
use std::path::{Path, PathBuf};
use tunebench::{result_json, run, RunSpec, Scale, Workload, END_TO_END, PER_LAYER};

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    serde_json::parse_value(&text).expect("BENCHMARK.json parses")
}

fn field<'a>(v: &'a Value, name: &str) -> &'a Value {
    match v {
        Value::Object(fields) => fields
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing field {name}")),
        other => panic!("expected an object holding {name}, got {other:?}"),
    }
}

fn text(v: &Value) -> &str {
    match v {
        Value::String(s) => s,
        other => panic!("expected a string, got {other:?}"),
    }
}

/// `(name, unit)` of every metric a `BENCHMARK.json` section lists.
fn listed(section: &str) -> Vec<(String, String)> {
    let json = benchmark_json();
    field(&json, section)
        .as_array()
        .expect("a metric list")
        .iter()
        .map(|m| {
            (
                text(field(m, "name")).to_string(),
                text(field(m, "unit")).to_string(),
            )
        })
        .collect()
}

#[test]
fn registry_matches_benchmark_json() {
    let names = |defs: &[tunebench::MetricDef]| -> Vec<(String, String)> {
        defs.iter()
            .map(|d| (d.name.to_string(), d.unit.to_string()))
            .collect()
    };
    assert_eq!(names(END_TO_END), listed("end_to_end"));
    assert_eq!(names(PER_LAYER), listed("per_layer"));
    let json = benchmark_json();
    let workloads: Vec<String> = field(&json, "workloads")
        .as_array()
        .expect("a workload list")
        .iter()
        .map(|w| text(field(w, "name")).to_string())
        .collect();
    for w in &workloads {
        assert!(Workload::parse(w).is_some(), "unknown workload {w}");
    }
}

#[test]
fn every_workload_emits_every_metric_at_smoke_size() {
    let tmp = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    std::fs::create_dir_all(&tmp).unwrap();
    for workload in Workload::ALL {
        for traced in [false, true] {
            let spec = RunSpec {
                workload,
                seed: 5,
                seconds: 0.0,
                traced,
                scale: Scale::Smoke,
            };
            // The flaky campaign's injected panics are contained; keep
            // the default hook quiet while it runs, then restore it for
            // the assertions below.
            let hook = std::panic::take_hook();
            std::panic::set_hook(Box::new(|_| {}));
            let result = run(&spec, &tmp);
            std::panic::set_hook(hook);
            let line = result_json(&result);
            assert!(
                result.correct,
                "{} trace={traced} failed its checks: {}",
                workload.name(),
                result.detail
            );
            let expected = if traced { PER_LAYER } else { END_TO_END };
            assert_eq!(result.metrics.len(), expected.len());
            for (def, (name, value, unit)) in expected.iter().zip(&result.metrics) {
                assert_eq!(def.name, *name);
                assert!(
                    !unit.is_empty() && *unit == def.unit,
                    "{name} has unit {unit:?}"
                );
                assert!(value.is_finite(), "{name} = {value}");
            }

            // The result line is valid JSON with exactly the four keys.
            let parsed = serde_json::parse_value(&line).expect("result line parses");
            match &parsed {
                Value::Object(fields) => {
                    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
                    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
                }
                other => panic!("result line is not an object: {other:?}"),
            }

            if traced && workload != Workload::ServeRecover {
                // The add-up check ran: every search has a residual, and
                // the layers it subtracts were measured.
                let get = |n: &str| result.metrics.iter().find(|m| m.0 == n).unwrap().1;
                assert!(result.detail.contains("residual"), "{}", result.detail);
                assert!(get("executor.search_s") > 0.0);
                assert!(get("gp.train_s") > 0.0 && get("bo.propose_s") > 0.0);
                let unattributed = get("executor.unattributed_s");
                assert!(unattributed.abs() < get("executor.search_s"));
            }
        }
    }
}
