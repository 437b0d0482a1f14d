//! The binary driven the way the driver drives it, at `--quick` sizes:
//! the contract's command line in, the contract's result line out.

use std::path::PathBuf;
use std::process::Command;

/// Metric names of one list of `BENCHMARK.json`, in order.
fn catalogued(list: &str) -> Vec<String> {
    let doc = include_str!("../../BENCHMARK.json");
    let start = doc.find(&format!("\"{list}\"")).expect("list is present");
    let body = &doc[start..];
    let end = body.find(']').expect("list is closed");
    body[..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').unwrap()].to_string())
        .collect()
}

fn run(workload: &str, trace: &str, out: &PathBuf) -> (bool, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_perf_suite"))
        .args(["--workload", workload, "--seed", "5", "--seconds", "0.1"])
        .args(["--trace", trace, "--quick", "--out"])
        .arg(out)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 output");
    let last = stdout.lines().last().unwrap_or_default().to_string();
    (output.status.success(), last)
}

/// Names of the `metrics` object of a result line, in order.
fn reported(result_line: &str) -> Vec<String> {
    let metrics = &result_line[result_line.find("\"metrics\"").expect("metrics key")..];
    // Each metric reads `"<name>": {"value": ...`; the name ends every
    // chunk but the last.
    let mut chunks: Vec<&str> = metrics.split("\": {\"value\": ").collect();
    chunks.pop();
    chunks
        .iter()
        .map(|chunk| chunk[chunk.rfind('"').expect("a quoted name") + 1..].to_string())
        .collect()
}

#[test]
fn a_quick_end_to_end_run_reports_every_end_to_end_metric() {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("quick_e2e");
    for workload in ["shor_mix", "batch_sweep", "serve_cold"] {
        let (ok, line) = run(workload, "0", &out);
        assert!(ok, "{workload}: {line}");
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": "),
            "{line}"
        );
        assert!(line.contains("\"failed\": 0, \"metrics\": {"), "{line}");
        assert_eq!(reported(&line), catalogued("end_to_end"), "{workload}");
        assert!(!line.contains("null"), "{workload}: {line}");
    }
}

#[test]
fn a_quick_traced_run_reports_every_layer_metric_and_writes_its_spans() {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("quick_traced");
    for workload in ["qft_stream", "serve_warm"] {
        let (ok, line) = run(workload, "1", &out);
        assert!(ok, "{workload}: {line}");
        assert!(line.starts_with("{\"correct\": true, "), "{line}");
        assert_eq!(reported(&line), catalogued("per_layer"), "{workload}");
        assert!(!line.contains("null"), "{workload}: {line}");
        let trace = std::fs::read_to_string(out.join(format!("trace_{workload}.jsonl")))
            .expect("the trace file is written");
        assert!(trace.lines().count() > 20);
        for row in trace.lines() {
            assert!(row.starts_with("{\"id\": ") && row.ends_with('}'), "{row}");
        }
        assert!(trace.contains("\"source\": \"program\""));
        assert!(trace.contains("\"source\": \"harness\""));
    }
}

#[test]
fn an_unknown_workload_is_an_error_without_a_result_line() {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("quick_unknown");
    let (ok, line) = run("no_such_workload", "0", &out);
    assert!(!ok);
    assert!(!line.starts_with('{'), "{line}");
}
