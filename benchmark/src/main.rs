//! `snoc-benchmark`: runs the benchmark workloads and prints every
//! metric as `workload metric value unit`, then one JSON summary line.
//!
//! ```text
//! snoc-benchmark --workload <name|all> [--seed <n>] [--seconds <s>] [--trace 0|1]
//!                [--repeat <n>] [--json <path>]
//! snoc-benchmark --compare <parent.json> <change.json>
//! ```
//!
//! One named workload runs in this process. `all` and `--repeat` run
//! each workload in a child process of its own (so peak memory and
//! set-up are per workload), rotating the order every round, and print
//! each metric's median and quartiles. `--compare` applies the bounds
//! of `BENCHMARK.json` to two `--json` documents.
//!
//! Exit codes: 0 when every output checked out, 1 when a cell failed or
//! a comparison regressed, 2 on a bad command line or a `SNOC_*`
//! variable in the environment (checked before any simulation).

use snoc_benchmark::digest::hex;
use snoc_benchmark::json::Json;
use snoc_benchmark::measure::{self, Report};
use snoc_benchmark::stats::quartiles;
use snoc_benchmark::workloads::{self, Workload, DEFAULT_SEED, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const USAGE: &str = "usage: snoc-benchmark --workload <name|all> [--seed <n>] [--seconds <s>] \
[--trace 0|1] [--repeat <n>] [--json <path>]\n       snoc-benchmark --compare <parent.json> <change.json>";

/// The benchmark's definition: metric names, units, directions and
/// bounds.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

enum Cli {
    Run(RunArgs),
    Compare(PathBuf, PathBuf),
}

struct RunArgs {
    /// `None` for `all`.
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    repeat: Option<usize>,
    json: Option<PathBuf>,
}

fn operand(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
    what: &str,
) -> Result<String, String> {
    args.next().ok_or(format!("{flag} requires {what}"))
}

fn count(flag: &str, v: &str) -> Result<u64, String> {
    match v.parse::<u64>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!("{flag}: `{v}` is not a count of at least 1")),
    }
}

fn parse_cli(mut args: impl Iterator<Item = String>) -> Result<Cli, String> {
    let mut run = RunArgs {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: default_seconds(),
        trace: false,
        repeat: None,
        json: None,
    };
    let mut workload: Option<String> = None;
    let mut compare = None;
    let mut run_flags = false;
    while let Some(arg) = args.next() {
        let a = arg.as_str();
        run_flags |= a != "--compare";
        match a {
            "--workload" => workload = Some(operand(&mut args, a, "a workload name")?),
            "--seed" => {
                let v = operand(&mut args, a, "a seed")?;
                run.seed = v
                    .parse()
                    .map_err(|_| format!("--seed: `{v}` is not an unsigned 64-bit integer"))?;
            }
            "--seconds" => run.seconds = count(a, &operand(&mut args, a, "a duration")?)?,
            "--repeat" => run.repeat = Some(count(a, &operand(&mut args, a, "a count")?)? as usize),
            "--json" => run.json = Some(operand(&mut args, a, "a path")?.into()),
            "--trace" => {
                run.trace = match operand(&mut args, a, "0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace: `{v}` is not 0 or 1")),
                }
            }
            "--compare" => {
                let parent = operand(&mut args, a, "two paths")?;
                let change = operand(&mut args, a, "two paths")?;
                compare = Some((parent.into(), change.into()));
            }
            _ => return Err(format!("unrecognized argument `{arg}`")),
        }
    }
    if let Some((parent, change)) = compare {
        if run_flags {
            return Err("--compare takes no other flag".into());
        }
        return Ok(Cli::Compare(parent, change));
    }
    let name = workload.ok_or("--workload is required")?;
    if name != "all" {
        run.workload = Some(workloads::by_name(&name).ok_or_else(|| {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            format!(
                "unknown workload `{name}` (one of: all, {})",
                names.join(", ")
            )
        })?);
    }
    Ok(Cli::Run(run))
}

/// `run_seconds` of `BENCHMARK.json`.
fn default_seconds() -> u64 {
    spec()
        .get("run_seconds")
        .and_then(Json::as_f64)
        .expect("BENCHMARK.json has run_seconds") as u64
}

fn spec() -> Json {
    Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON")
}

/// The `name`s listed under `key` in `BENCHMARK.json`.
fn spec_names(key: &str) -> Vec<String> {
    spec()
        .get(key)
        .and_then(Json::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| m.get("name").and_then(Json::as_str).map(str::to_string))
        .collect()
}

fn main() {
    let t_main = Instant::now();
    let cli = match parse_cli(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // The numbers must measure the defaults: no environment knob may
    // steer the simulator underneath the benchmark.
    let knobs: Vec<String> = std::env::vars_os()
        .map(|(k, _)| k.to_string_lossy().into_owned())
        .filter(|k| k.starts_with("SNOC_"))
        .collect();
    if !knobs.is_empty() {
        eprintln!(
            "error: unset {} first: the benchmark measures the defaults",
            knobs.join(", ")
        );
        std::process::exit(2);
    }
    let code = match cli {
        Cli::Compare(parent, change) => compare(&parent, &change),
        Cli::Run(args) => match (args.workload, args.repeat) {
            (Some(w), None) => run_one(w, &args, t_main),
            (w, repeat) => {
                let ws: Vec<&Workload> = w.map_or_else(|| WORKLOADS.iter().collect(), |w| vec![w]);
                rounds(&ws, repeat.unwrap_or(1), &args)
            }
        },
    };
    std::process::exit(code);
}

/// Runs one workload in this process.
fn run_one(w: &Workload, args: &RunArgs, t_main: Instant) -> i32 {
    let mut report = if args.trace {
        measure::traced(w, args.seed)
    } else {
        measure::end_to_end(w, args.seed, Duration::from_secs(args.seconds), t_main)
    };
    // The printed metrics must be exactly the ones BENCHMARK.json
    // defines for this kind of run.
    let want = spec_names(if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    });
    let got: Vec<String> = report.metrics.iter().map(|m| m.name.to_string()).collect();
    if got != want {
        report.failed += 1;
        report.problems.push(format!(
            "metrics {got:?} differ from BENCHMARK.json's {want:?}"
        ));
    }

    let name = w.name;
    println!("{name} workers {} count", report.workers);
    for m in &report.metrics {
        println!("{name} {} {} {}", m.name, m.value, m.unit);
    }
    println!("{name} cells_attempted {} count", report.attempted);
    println!("{name} cells_failed {} count", report.failed);
    println!("{name} cells_unverified {} count", report.unverified);
    for p in &report.problems {
        eprintln!("error: {name}: {p}");
    }
    if let Some(path) = &args.json {
        if let Err(e) = write_doc(path, vec![run_json(&report)]) {
            eprintln!("error: {e}");
            return 1;
        }
    }
    println!(
        "{}",
        summary(
            report.correct(),
            report.attempted,
            report.failed,
            metrics_json(&report)
        )
    );
    if report.correct() {
        0
    } else {
        1
    }
}

fn metrics_json(r: &Report) -> Vec<(String, Json)> {
    r.metrics
        .iter()
        .map(|m| (m.name.to_string(), value_json(m.value, m.unit)))
        .collect()
}

fn value_json(value: f64, unit: &str) -> Json {
    Json::Obj(vec![
        ("value".into(), Json::Num(value)),
        ("unit".into(), Json::Str(unit.into())),
    ])
}

/// The last stdout line: `{"correct", "attempted", "failed", "metrics"}`.
fn summary(correct: bool, attempted: u64, failed: u64, metrics: Vec<(String, Json)>) -> Json {
    Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Num(attempted as f64)),
        ("failed".into(), Json::Num(failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
}

fn run_json(r: &Report) -> Json {
    let num = |n: u64| Json::Num(n as f64);
    Json::Obj(vec![
        ("workload".into(), Json::Str(r.workload.into())),
        ("seed".into(), num(r.seed)),
        ("trace".into(), Json::Bool(r.trace)),
        ("workers".into(), num(r.workers as u64)),
        ("correct".into(), Json::Bool(r.correct())),
        ("attempted".into(), num(r.attempted)),
        ("failed".into(), num(r.failed)),
        ("unverified".into(), num(r.unverified)),
        ("metrics".into(), Json::Obj(metrics_json(r))),
        (
            "digests".into(),
            Json::Obj(
                r.digests
                    .iter()
                    .map(|(label, d)| (label.clone(), Json::Str(hex(*d))))
                    .collect(),
            ),
        ),
    ])
}

/// Writes a `{"schema", "runs"}` document, one run per line.
fn write_doc(path: &Path, runs: Vec<Json>) -> Result<(), String> {
    let lines: Vec<String> = runs.iter().map(|r| format!("  {r}")).collect();
    let doc = format!(
        "{{\"schema\": \"snoc-benchmark/1\", \"runs\": [\n{}\n]}}\n",
        lines.join(",\n")
    );
    std::fs::write(path, doc).map_err(|e| format!("could not write {}: {e}", path.display()))
}

fn read_runs(path: &Path) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    doc.get("runs")
        .and_then(Json::as_array)
        .map(<[Json]>::to_vec)
        .ok_or(format!("{}: no `runs` array", path.display()))
}

/// Runs `repeat` rounds of `ws`, each workload in a fresh child process,
/// rotating the order every round, then prints each metric's median
/// and quartiles.
fn rounds(ws: &[&Workload], repeat: usize, args: &RunArgs) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: cannot locate this executable: {e}");
            return 1;
        }
    };
    let mut runs = Vec::new();
    let mut ok = true;
    for round in 0..repeat {
        for k in 0..ws.len() {
            let w = ws[(k + round) % ws.len()];
            let part = PathBuf::from(format!(
                ".snoc-benchmark-{}-{round}-{}.json",
                std::process::id(),
                w.name
            ));
            let status = Command::new(&exe)
                .args(["--workload", w.name])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .arg("--json")
                .arg(&part)
                .stdin(Stdio::null())
                .status();
            let child_runs = read_runs(&part);
            let _ = std::fs::remove_file(&part);
            match (status, child_runs) {
                (Ok(status), Ok(child_runs)) => {
                    ok &= status.success();
                    runs.extend(child_runs);
                }
                (status, child_runs) => {
                    ok = false;
                    eprintln!(
                        "error: round {round} of {} produced no result: {:?} {:?}",
                        w.name,
                        status.map(|s| s.to_string()),
                        child_runs.err()
                    );
                }
            }
        }
    }

    let (mut attempted, mut failed) = (0u64, 0u64);
    for r in &runs {
        attempted += r.get("attempted").and_then(Json::as_f64).unwrap_or(0.0) as u64;
        failed += r.get("failed").and_then(Json::as_f64).unwrap_or(0.0) as u64;
    }
    let mut metrics = Vec::new();
    for w in ws {
        for (name, unit, values) in metric_values(&runs, w.name) {
            let (q1, med, q3) = quartiles(&values);
            println!(
                "median {} {name} {med} {unit} q1 {q1} q3 {q3} n {}",
                w.name,
                values.len()
            );
            metrics.push((format!("{}/{name}", w.name), value_json(med, &unit)));
        }
    }
    if let Some(path) = &args.json {
        if let Err(e) = write_doc(path, runs) {
            eprintln!("error: {e}");
            ok = false;
        }
    }
    let correct = ok && failed == 0;
    println!("{}", summary(correct, attempted.max(1), failed, metrics));
    if correct {
        0
    } else {
        1
    }
}

/// Every metric of `workload`'s runs, in first-seen order, with its
/// unit and one value per run.
fn metric_values(runs: &[Json], workload: &str) -> Vec<(String, String, Vec<f64>)> {
    let mut out: Vec<(String, String, Vec<f64>)> = Vec::new();
    for r in runs {
        if r.get("workload").and_then(Json::as_str) != Some(workload) {
            continue;
        }
        for (name, m) in r
            .get("metrics")
            .and_then(Json::as_object)
            .unwrap_or_default()
        {
            let (Some(v), Some(unit)) = (
                m.get("value").and_then(Json::as_f64),
                m.get("unit").and_then(Json::as_str),
            ) else {
                continue;
            };
            match out.iter_mut().find(|(n, _, _)| n == name) {
                Some((_, _, values)) => values.push(v),
                None => out.push((name.clone(), unit.to_string(), vec![v])),
            }
        }
    }
    out
}

/// Compares a parent's and a change's `--json` documents metric by
/// metric under `BENCHMARK.json`'s bounds. A metric whose parent
/// quartile spread exceeds its bound is unresolved, unless every change
/// run beats every parent run.
fn compare(parent: &Path, change: &Path) -> i32 {
    let (a_runs, b_runs) = match (read_runs(parent), read_runs(change)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let spec = spec();
    let bounds: Vec<(&str, bool, f64)> = spec
        .get("end_to_end")
        .and_then(Json::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?,
                m.get("better")?.as_str()? == "lower",
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect();
    let untraced = |runs: &[Json]| -> Vec<Json> {
        runs.iter()
            .filter(|r| r.get("trace").and_then(Json::as_bool) == Some(false))
            .cloned()
            .collect()
    };
    let (a_runs, b_runs) = (untraced(&a_runs), untraced(&b_runs));
    let mut regressed = false;
    for w in &WORKLOADS {
        let (a_all, b_all) = (
            metric_values(&a_runs, w.name),
            metric_values(&b_runs, w.name),
        );
        if a_all.is_empty() && b_all.is_empty() {
            continue;
        }
        let values = |all: &[(String, String, Vec<f64>)], name: &str| {
            all.iter()
                .find(|(n, _, _)| n == name)
                .map(|(_, _, v)| v.clone())
                .unwrap_or_default()
        };
        for &(name, lower, bound) in &bounds {
            let (a, b) = (values(&a_all, name), values(&b_all, name));
            if a.is_empty() || b.is_empty() {
                println!("{} {name} unresolved (missing runs)", w.name);
                continue;
            }
            let ((a1, am, a3), (b1, bm, b3)) = (quartiles(&a), quartiles(&b));
            let worse = if lower {
                (bm - am) / am
            } else {
                (am - bm) / am
            };
            let spread = (a3 - a1) / am;
            let beats = |x: f64, y: f64| if lower { x < y } else { x > y };
            let all_better = b.iter().all(|&x| a.iter().all(|&y| beats(x, y)));
            let verdict = if spread > bound && !all_better {
                "unresolved"
            } else if worse > bound {
                regressed = true;
                "regressed"
            } else {
                "ok"
            };
            println!(
                "{} {name} parent {am} [{a1}, {a3}] change {bm} [{b1}, {b3}] worse {:+.2}% bound {:.0}% {verdict}",
                w.name,
                worse * 100.0,
                bound * 100.0
            );
        }
        let failed: f64 = b_runs
            .iter()
            .filter(|r| r.get("workload").and_then(Json::as_str) == Some(w.name))
            .filter_map(|r| r.get("failed").and_then(Json::as_f64))
            .sum();
        if failed > 0.0 {
            regressed = true;
            println!("{} cells_failed {failed} regressed", w.name);
        }
    }
    i32::from(regressed)
}
