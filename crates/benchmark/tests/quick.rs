//! Structure-only coverage of the harness for tier-1: `--quick` prints
//! every metric `BENCHMARK.json` names exactly once per workload, finite,
//! with the declared unit and a name inside the contract's grammar. No
//! magnitudes are asserted — wall-clock numbers do not belong in a test.

use std::collections::HashMap;
use std::process::{Command, Stdio};

use themis_benchmark::{spec, workloads};

const BENCHMARK_JSON: &str = include_str!("../../../BENCHMARK.json");

/// The flat objects of the JSON array under `key`, as key → value maps
/// (string quotes stripped). Enough for `BENCHMARK.json`, whose metric
/// and workload entries hold no nested values.
fn objects(key: &str) -> Vec<HashMap<String, String>> {
    let start = BENCHMARK_JSON
        .find(&format!("\"{key}\": ["))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} array"));
    let section = &BENCHMARK_JSON[start..];
    let section = &section[..section.find(']').expect("array closes")];
    section
        .split('{')
        .skip(1)
        .map(|obj| {
            let obj = &obj[..obj.find('}').expect("object closes")];
            obj.split(", \"")
                .filter_map(|pair| pair.split_once(':'))
                .map(|(k, v)| {
                    let clean = |s: &str| s.trim().trim_matches('"').to_string();
                    (clean(k), clean(v))
                })
                .collect()
        })
        .collect()
}

fn name_in_grammar(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn spec_tables_match_benchmark_json() {
    let names: Vec<String> = objects("workloads")
        .into_iter()
        .map(|w| w["name"].clone())
        .collect();
    assert_eq!(names, workloads::NAMES);

    let declared: Vec<(String, String, bool, f64)> = objects("end_to_end")
        .into_iter()
        .map(|m| {
            (
                m["name"].clone(),
                m["unit"].clone(),
                m["better"] == "higher",
                m["bound"].parse().expect("bound is a number"),
            )
        })
        .collect();
    let table: Vec<(String, String, bool, f64)> = spec::END_TO_END
        .iter()
        .map(|&(n, u, h, b)| (n.to_string(), u.to_string(), h, b))
        .collect();
    assert_eq!(declared, table);

    let declared: Vec<(String, String)> = objects("per_layer")
        .into_iter()
        .map(|m| (m["name"].clone(), m["unit"].clone()))
        .collect();
    let table: Vec<(String, String)> = spec::PER_LAYER
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(declared, table);

    let run_seconds = format!("\"run_seconds\": {},", spec::RUN_SECONDS);
    assert!(BENCHMARK_JSON.contains(&run_seconds));
}

#[test]
fn quick_mode_prints_every_declared_metric_once_per_workload() {
    // One process per workload, side by side: structure does not care
    // about contention, and the test stays within ten seconds.
    let children: Vec<_> = workloads::NAMES
        .iter()
        .map(|w| {
            Command::new(env!("CARGO_BIN_EXE_themis-benchmark"))
                .args(["--quick", &format!("--workload={w}")])
                .stdin(Stdio::null())
                .stdout(Stdio::piped())
                .spawn()
                .expect("spawn the benchmark binary")
        })
        .collect();
    let declared: HashMap<&str, &str> = spec::END_TO_END
        .iter()
        .map(|m| (m.0, m.1))
        .chain(spec::PER_LAYER)
        .collect();
    for (workload, child) in workloads::NAMES.iter().zip(children) {
        let output = child.wait_with_output().expect("benchmark ran");
        // Exit 1 is a failed magnitude check, which a loaded test host
        // may cause; anything else means the harness itself broke.
        let code = output.status.code();
        assert!(matches!(code, Some(0 | 1)), "{workload}: exit {code:?}");
        let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
        let mut seen: HashMap<&str, usize> = HashMap::new();
        for line in stdout.lines() {
            let fields: Vec<&str> = line.split_whitespace().collect();
            let ["metric", w, name, value, unit] = fields[..] else {
                continue;
            };
            assert_eq!(w, *workload);
            assert!(name_in_grammar(name), "{name} is outside the name grammar");
            let value: f64 = value.parse().expect("metric value is a number");
            assert!(value.is_finite(), "{workload} {name} = {value}");
            assert_eq!(declared.get(name), Some(&unit), "{workload} {name}");
            *seen.entry(name).or_insert(0) += 1;
        }
        for name in declared.keys() {
            assert_eq!(seen.get(name), Some(&1), "{workload} printed {name}");
        }
    }
}
