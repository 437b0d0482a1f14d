//! `perf_suite` — the repository's one benchmark.
//!
//! Seven named workloads; eight end-to-end metrics measured with tracing
//! off; per-layer metrics and a span trace from a separate traced run.
//! See `README.md` beside this package for the glossary and
//! `BENCHMARK.json` at the repository root for the driver's contract.
//!
//! ```text
//! perf_suite --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run (the contract)
//! perf_suite [--seed 2016] [--seconds 12] [--quick] [--record <file>]   every workload, both passes
//! perf_suite --compare <A.json> <B.json>                                two records, metric by metric
//! ```

mod check;
mod e2e;
mod host;
mod json;
mod layers;
mod metrics;
mod probes;
mod stats;
mod trace;
mod workloads;

use check::Tally;
use json::Json;
use metrics::{Better, Metric, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

const DEFAULT_SEED: u64 = 2016;
const DEFAULT_SECONDS: f64 = 12.0;
const QUICK_SECONDS: f64 = 0.25;
/// Prefix of the line a single run prints before its result line, with
/// what the contract's result line has no room for.
const DETAIL_PREFIX: &str = "perf_suite-detail ";

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    out: Option<PathBuf>,
    record: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
    print_benchmark_json: bool,
}

impl Args {
    fn seed(&self) -> u64 {
        self.seed.unwrap_or(DEFAULT_SEED)
    }

    fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.quick {
            QUICK_SECONDS
        } else {
            DEFAULT_SECONDS
        })
    }
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                let v = value("a number")?;
                args.seed = Some(v.parse().map_err(|_| format!("bad --seed {v}"))?);
            }
            "--seconds" => {
                let v = value("a number")?;
                let seconds: f64 = v.parse().map_err(|_| format!("bad --seconds {v}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds {v} is out of range"));
                }
                args.seconds = Some(seconds);
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace {other}")),
                }
            }
            "--quick" => args.quick = true,
            "--out" => args.out = Some(PathBuf::from(value("a directory")?)),
            "--record" => args.record = Some(PathBuf::from(value("a file")?)),
            "--compare" => {
                let a = PathBuf::from(value("two files")?);
                let b = PathBuf::from(value("two files")?);
                args.compare = Some((a, b));
            }
            "--print-benchmark-json" => args.print_benchmark_json = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Where a run writes: beside the executable, so inside the build
/// directory, unless `--out` says otherwise.
fn default_out_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(|d| d.join("perf_suite_out")))
        .unwrap_or_else(|| PathBuf::from("perf_suite_out"))
}

/// One metric as a table row; very small and very large values in
/// scientific notation so their digits show.
fn metric_row(metric: &Metric, value: f64) -> String {
    let number = if value != 0.0 && !(1e-3..1e7).contains(&value.abs()) {
        format!("{value:.5e}")
    } else {
        format!("{value:.6}")
    };
    format!("  {:<40} {number:>16} {}", metric.name, metric.unit)
}

fn metric_json(metric: &Metric, value: f64) -> (String, Json) {
    (
        metric.name.to_string(),
        Json::obj([
            ("value", Json::Num(value)),
            ("unit", Json::str(metric.unit)),
        ]),
    )
}

/// One workload, one pass. Prints the metrics, a detail line, and last
/// the contract's result line.
fn single_run(args: &Args, name: &str) -> ExitCode {
    // A calibration file persisted by another commit must never steer a
    // run, and the run must not write outside its checkout.
    std::env::set_var("QCEMU_CALIB_CACHE", "off");
    let sizes = if args.quick {
        workloads::QUICK
    } else {
        workloads::FULL
    };
    let (seed, seconds) = (args.seed(), args.seconds());
    if !metrics::workload_names().any(|w| w == name) {
        eprintln!(
            "perf_suite: unknown workload {name}; one of {}",
            metrics::workload_names().collect::<Vec<_>>().join(", ")
        );
        return ExitCode::from(2);
    }
    println!(
        "perf_suite {name} seed={seed} seconds={seconds} pass={} quick={} host={}",
        if args.trace { "traced" } else { "e2e" },
        args.quick,
        host::describe()
    );

    let (catalogue, values, tally, detail): (&[Metric], Vec<(&str, f64)>, Tally, Json) =
        if args.trace {
            let mut tally = Tally::default();
            let workload = workloads::build(name, seed, &sizes).expect("catalogued workload");
            let rig = e2e::Rig::new(workload, &sizes, &mut tally);
            let mut tracer = trace::Tracer::new();
            let layers = layers::run(&rig, &sizes, seconds, args.quick, &mut tracer, &mut tally);
            drop(rig);
            let out_dir = args.out.clone().unwrap_or_else(default_out_dir);
            let trace_file = out_dir.join(format!("trace_{name}.jsonl"));
            if let Err(e) = std::fs::create_dir_all(&out_dir)
                .and_then(|()| std::fs::write(&trace_file, tracer.to_jsonl()))
            {
                eprintln!("perf_suite: cannot write {}: {e}", trace_file.display());
                return ExitCode::from(2);
            }
            let detail = Json::obj([
                ("trace_file", Json::str(trace_file.display().to_string())),
                ("spans", Json::Int(tracer.spans.len() as i64)),
            ]);
            (PER_LAYER, layers.in_order(), tally, detail)
        } else {
            let outcome = e2e::run(name, seed, seconds, &sizes).expect("catalogued workload");
            let detail = Json::obj([(
                "samples",
                Json::obj(outcome.detail.iter().map(|d| {
                    (
                        d.path,
                        Json::obj([
                            ("n", Json::Int(d.n as i64)),
                            ("tail_percentile", Json::Num(d.tail_percentile)),
                            ("tail", Json::Num(d.tail)),
                        ]),
                    )
                })),
            )]);
            (END_TO_END, outcome.metrics, outcome.tally, detail)
        };

    for (metric, (name, value)) in catalogue.iter().zip(&values) {
        assert_eq!(metric.name, *name, "metrics out of catalogue order");
        println!("{}", metric_row(metric, *value));
    }
    for note in &tally.notes {
        println!("  FAILED: {note}");
    }
    let mut detail_fields = vec![
        ("quick".to_string(), Json::Bool(args.quick)),
        ("fail_ratio".to_string(), Json::Num(tally.fail_ratio())),
    ];
    if let Json::Obj(fields) = detail {
        detail_fields.extend(fields);
    }
    println!("{DETAIL_PREFIX}{}", Json::Obj(detail_fields));

    // A metric that is not a finite number is a failed measurement, not
    // a value: it must not reach the driver as `null`.
    let unmeasured: Vec<&str> = values
        .iter()
        .filter(|(_, v)| !v.is_finite())
        .map(|(n, _)| *n)
        .collect();
    let correct = tally.failed == 0 && unmeasured.is_empty();
    for name in &unmeasured {
        println!("  FAILED: {name} could not be measured");
    }
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(tally.attempted.max(1) as i64)),
        (
            "failed",
            Json::Int((tally.failed + unmeasured.len() as u64) as i64),
        ),
        (
            "metrics",
            Json::Obj(
                catalogue
                    .iter()
                    .zip(&values)
                    .map(|(m, (_, v))| metric_json(m, *v))
                    .collect(),
            ),
        ),
    ]);
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Re-executes this binary for one workload and pass and returns its
/// result line and detail line, parsed. A fresh process per workload and
/// pass keeps pool state, calibration, plan caches and the peak-RSS
/// counter from leaking between them.
fn child_run(
    args: &Args,
    name: &str,
    traced: bool,
    out_dir: &Path,
) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name])
        .args(["--seed", &args.seed().to_string()])
        .args(["--seconds", &args.seconds().to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(out_dir)
        .stderr(Stdio::inherit());
    if args.quick {
        cmd.arg("--quick");
    }
    let output = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let result = stdout
        .lines()
        .last()
        .ok_or("the run printed nothing")
        .and_then(|l| json::parse(l).map_err(|_| "the run's last line is not JSON"))
        .map_err(|e| format!("{name}: {e} (exit {:?})", output.status.code()))?;
    let detail = stdout
        .lines()
        .find_map(|l| l.strip_prefix(DETAIL_PREFIX))
        .and_then(|l| json::parse(l).ok())
        .unwrap_or(Json::Obj(Vec::new()));
    for line in stdout
        .lines()
        .filter(|l| l.trim_start().starts_with("FAILED"))
    {
        println!("{name}: {}", line.trim());
    }
    Ok((result, detail))
}

fn whole(json: Option<&Json>) -> i64 {
    match json {
        Some(Json::Int(v)) => *v,
        _ => 0,
    }
}

/// Every workload, both passes, one record.
fn suite(args: &Args) -> ExitCode {
    let out_dir = args.out.clone().unwrap_or_else(default_out_dir);
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("perf_suite: cannot create {}: {e}", out_dir.display());
        return ExitCode::from(2);
    }
    println!(
        "perf_suite: seed {}, quick {}, host {}",
        args.seed(),
        args.quick,
        host::describe()
    );
    let mut records = Vec::new();
    let mut failed_total = 0;
    for (name, why) in WORKLOADS {
        println!("\n== {name} — {why}");
        let mut record = vec![("why".to_string(), Json::str(*why))];
        let (mut attempted, mut failed) = (0, 0);
        for (traced, key, catalogue) in [
            (false, "end_to_end", END_TO_END),
            (true, "per_layer", PER_LAYER),
        ] {
            let (result, detail) = match child_run(args, name, traced, &out_dir) {
                Ok(parsed) => parsed,
                Err(e) => {
                    eprintln!("perf_suite: {e}");
                    failed_total += 1;
                    continue;
                }
            };
            attempted += whole(result.get("attempted"));
            failed += whole(result.get("failed"));
            let values = result.get("metrics").cloned().unwrap_or(Json::Null);
            for metric in catalogue {
                let value = values
                    .get(metric.name)
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64)
                    .unwrap_or(f64::NAN);
                println!("{}", metric_row(metric, value));
            }
            record.push((key.to_string(), values));
            record.push((format!("{key}_detail"), detail));
        }
        failed_total += failed;
        record.push(("attempted".to_string(), Json::Int(attempted)));
        record.push(("failed".to_string(), Json::Int(failed)));
        record.push((
            "fail_ratio".to_string(),
            Json::Num(failed as f64 / attempted.max(1) as f64),
        ));
        records.push((name.to_string(), Json::Obj(record)));
    }
    let record = Json::obj([
        ("suite", Json::str("perf_suite")),
        ("quick", Json::Bool(args.quick)),
        ("seed", Json::Int(args.seed() as i64)),
        ("seconds", Json::Num(args.seconds())),
        ("host", host::describe()),
        ("workloads", Json::Obj(records)),
    ]);
    let path = args
        .record
        .clone()
        .unwrap_or_else(|| out_dir.join("perf_suite.json"));
    if let Err(e) = std::fs::write(&path, record.pretty()) {
        eprintln!("perf_suite: cannot write {}: {e}", path.display());
        return ExitCode::from(2);
    }
    println!(
        "\nrecord: {}\ntraces: {}/trace_<workload>.jsonl",
        path.display(),
        out_dir.display()
    );
    if failed_total == 0 {
        ExitCode::SUCCESS
    } else {
        println!("{failed_total} operations or runs failed");
        ExitCode::from(1)
    }
}

#[derive(Debug, PartialEq)]
enum Verdict {
    Ok,
    Worse,
    NotAvailable,
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
fn worsening(metric: &Metric, a: f64, b: f64) -> f64 {
    match metric.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

fn verdict(metric: &Metric, a: Option<f64>, b: Option<f64>) -> (Verdict, f64) {
    match (a, b) {
        (Some(a), Some(b)) if a.is_finite() && b.is_finite() && a != 0.0 => {
            let worse_by = worsening(metric, a, b);
            let bound = metric.bound.unwrap_or(f64::INFINITY);
            if worse_by > bound {
                (Verdict::Worse, worse_by)
            } else {
                (Verdict::Ok, worse_by)
            }
        }
        _ => (Verdict::NotAvailable, f64::NAN),
    }
}

/// Per end-to-end metric and workload: both values, how much worse the
/// second is, the bound, and a verdict. Any `worse` row — or more
/// failures in the second record — makes the exit code non-zero.
fn compare(a_path: &Path, b_path: &Path) -> ExitCode {
    let load = |path: &Path| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("perf_suite: {e}");
            return ExitCode::from(2);
        }
    };
    if a.get("quick") != b.get("quick") {
        eprintln!("perf_suite: one record is a --quick run and the other is not");
        return ExitCode::from(2);
    }
    if a.get("quick") == Some(&Json::Bool(true)) {
        println!("note: these are --quick records; their numbers mean nothing");
    }
    println!(
        "{:<14} {:<13} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    let mut worse_rows = 0;
    for (name, _) in WORKLOADS {
        let side = |doc: &Json, key: &str| -> Option<Json> {
            doc.get("workloads")?.get(name)?.get(key).cloned()
        };
        let value = |doc: &Json, metric: &str| -> Option<f64> {
            side(doc, "end_to_end")?.get(metric)?.get("value")?.as_f64()
        };
        for metric in END_TO_END {
            let (va, vb) = (value(&a, metric.name), value(&b, metric.name));
            let (v, worse_by) = verdict(metric, va, vb);
            if v == Verdict::Worse {
                worse_rows += 1;
            }
            println!(
                "{:<14} {:<13} {:>14.6} {:>14.6} {:>8.1}% {:>6.0}%  {}",
                name,
                metric.name,
                va.unwrap_or(f64::NAN),
                vb.unwrap_or(f64::NAN),
                100.0 * worse_by,
                100.0 * metric.bound.unwrap_or(f64::NAN),
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::NotAvailable => "n/a",
                }
            );
        }
        // Failures have no bound: any increase is worse.
        let failed = |doc: &Json| side(doc, "failed").as_ref().map(|j| whole(Some(j)));
        let (fa, fb) = (failed(&a), failed(&b));
        let status = match (fa, fb) {
            (Some(fa), Some(fb)) if fb > fa => {
                worse_rows += 1;
                "worse"
            }
            (Some(_), Some(_)) => "ok",
            _ => "n/a",
        };
        println!(
            "{:<14} {:<13} {:>14} {:>14} {:>9} {:>7}  {status}",
            name,
            "failed",
            fa.unwrap_or(-1),
            fb.unwrap_or(-1),
            "",
            "any"
        );
    }
    if worse_rows == 0 {
        println!("no metric is worse in B than in A by more than its bound");
        ExitCode::SUCCESS
    } else {
        println!("{worse_rows} rows are worse in B than in A by more than their bound");
        ExitCode::from(1)
    }
}

/// `BENCHMARK.json` as the catalogue in `metrics.rs` defines it.
fn benchmark_json() -> Json {
    let metric = |m: &Metric| {
        let mut fields = vec![
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better.as_str())),
        ];
        if let Some(bound) = m.bound {
            fields.push(("bound", Json::Num(bound)));
        }
        Json::obj(fields)
    };
    Json::obj([
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--offline",
                    "--quiet",
                    "--manifest-path",
                    "perf_suite/Cargo.toml",
                    "--",
                ]
                .map(Json::str)
                .to_vec(),
            ),
        ),
        ("paths", Json::Arr(vec![Json::str("perf_suite")])),
        ("run_seconds", Json::Int(DEFAULT_SECONDS as i64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        Json::obj([("name", Json::str(*name)), ("why", Json::str(*why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(metric).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(metric).collect()),
        ),
    ])
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perf_suite: {e}");
            return ExitCode::from(2);
        }
    };
    if args.print_benchmark_json {
        print!("{}", benchmark_json().pretty());
        return ExitCode::SUCCESS;
    }
    if let Some((a, b)) = &args.compare {
        return compare(a, b);
    }
    match &args.workload {
        Some(name) => single_run(&args, name),
        None => suite(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn the_contract_command_line_parses() {
        let args = parse_args(&strings(&[
            "--workload",
            "serve_cold",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(args.workload.as_deref(), Some("serve_cold"));
        assert_eq!(
            (args.seed, args.seconds, args.trace),
            (Some(7), Some(12.0), true)
        );
        for bad in [
            &["--trace", "2"][..],
            &["--seed"],
            &["--seconds", "0"],
            &["--seconds", "nan"],
            &["--frobnicate"],
        ] {
            assert!(parse_args(&strings(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn verdicts_respect_direction_and_bound() {
        let lower = metrics::end_to_end("hybrid_s").unwrap();
        let higher = metrics::end_to_end("req_per_s").unwrap();
        let (lo, hi) = (lower.bound.unwrap(), higher.bound.unwrap());
        assert_eq!(
            verdict(lower, Some(1.0), Some(1.0 + 0.9 * lo)).0,
            Verdict::Ok
        );
        assert_eq!(
            verdict(lower, Some(1.0), Some(1.0 + 1.1 * lo)).0,
            Verdict::Worse
        );
        assert_eq!(verdict(lower, Some(1.0), Some(0.5)).0, Verdict::Ok);
        assert_eq!(
            verdict(higher, Some(1.0), Some(1.0 - 0.9 * hi)).0,
            Verdict::Ok
        );
        assert_eq!(
            verdict(higher, Some(1.0), Some(1.0 - 1.1 * hi)).0,
            Verdict::Worse
        );
        assert_eq!(verdict(higher, Some(100.0), Some(200.0)).0, Verdict::Ok);
        assert_eq!(verdict(lower, None, Some(1.0)).0, Verdict::NotAvailable);
        assert_eq!(
            verdict(lower, Some(f64::NAN), Some(1.0)).0,
            Verdict::NotAvailable
        );
    }

    #[test]
    fn benchmark_json_obeys_the_contract_limits() {
        let doc = benchmark_json();
        let command = doc.get("command").and_then(Json::as_array).unwrap();
        assert!(command.len() <= 32);
        for word in command {
            let word = word.as_str().unwrap();
            assert!(word.len() <= 200 && !word.starts_with('/') && !word.contains(".."));
        }
        assert!(doc.pretty().len() <= 64 * 1024);
        let seconds = whole(doc.get("run_seconds"));
        assert!((1..=60).contains(&seconds));
    }
}
