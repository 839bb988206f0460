//! The library ignores the environment: with every documented `SNOC_*`
//! variable set — audit, telemetry and faults all on, one worker
//! thread, the cache off and pointed at a directory — a `System`, a
//! `SweepRunner` and a `Server` each return the uninstrumented metrics
//! of a clean run. Only the `snoc` binary reads these variables.
//!
//! The variables are set once, before anything else runs, and this
//! binary holds this one test, so nothing races the mutation.

use snoc_core::cellcache;
use snoc_core::metrics::RunMetrics;
use snoc_core::scenario::Scenario;
use snoc_core::serve::json::Json;
use snoc_core::serve::{ServeOptions, Server};
use snoc_core::sweep::{RunSpec, SweepRunner};
use snoc_core::system::System;
use snoc_workload::table3;
use std::io::{BufRead, BufReader, Write};
use std::net::Shutdown;
use std::os::unix::net::UnixStream;
use std::path::Path;

fn spec() -> RunSpec {
    let cfg = Scenario::SttRam4TsbWb
        .config()
        .rebuild()
        .cycles(100, 400)
        .build();
    RunSpec::homogeneous("env", cfg, table3::by_name("sap").unwrap())
}

fn run_system() -> RunMetrics {
    let s = spec();
    System::new(s.cfg, &s.workload, s.mode).run()
}

fn assert_clean(path: &str, got: &RunMetrics, clean: &RunMetrics) {
    assert!(
        got.audit.is_none() && got.telemetry.is_none() && got.faults.is_none(),
        "{path}: the environment instrumented the run"
    );
    assert_eq!(
        format!("{got:?}"),
        format!("{clean:?}"),
        "{path}: the environment changed the run"
    );
}

#[test]
fn the_library_ignores_every_snoc_variable() {
    let clean = run_system();
    assert!(clean.audit.is_none());

    let scratch = std::env::temp_dir().join(format!("snoc-env-{}", std::process::id()));
    let cache_dir = scratch.join("cellcache");
    for (var, value) in [
        ("SNOC_AUDIT", "panic"),
        ("SNOC_AUDIT_MAX_AGE", "1"),
        ("SNOC_TELEMETRY", "1"),
        ("SNOC_TELEMETRY_EPOCH", "8"),
        ("SNOC_TELEMETRY_TRACE", "16"),
        ("SNOC_FAULTS", "tsb=0.5,link=0.5,bank=0.5,kill_tsb=10"),
        ("SNOC_THREADS", "1"),
        ("SNOC_PROGRESS", "1"),
        ("SNOC_SWEEP_CACHE", "0"),
        ("SNOC_CACHE_DIR", cache_dir.to_str().unwrap()),
        ("SNOC_RESULTS_DIR", scratch.to_str().unwrap()),
        ("SNOC_BENCH_BASELINE", "/nonexistent.json"),
    ] {
        std::env::set_var(var, value);
    }

    assert_clean("System::new", &run_system(), &clean);

    let cells = SweepRunner::new().run_grid("env", vec![spec()]);
    assert_clean("SweepRunner", cells[0].metrics(), &clean);
    assert!(
        !cache_dir.exists(),
        "the runner must not open SNOC_CACHE_DIR"
    );

    let socket = scratch.with_extension("sock");
    let server = Server::start(ServeOptions::new(&socket)).expect("start");
    let lines = submit_and_fetch_results(&socket);
    server.shutdown();
    let results: Vec<&Json> = lines
        .iter()
        .filter(|v| v.get("event").and_then(Json::as_str) == Some("result"))
        .collect();
    assert_eq!(results.len(), 1);
    let v = results[0];
    assert_eq!(v.get("ok"), Some(&Json::Bool(true)), "{v:?}");
    assert_eq!(
        v.get("instrumented"),
        Some(&Json::Bool(false)),
        "Server: the environment instrumented the job: {v:?}"
    );
    let key = v.get("metrics_key").and_then(Json::as_str).unwrap();
    let key = snoc_common::fingerprint::Fingerprint::from_hex(key).unwrap();
    assert_eq!(
        v.get("metrics").and_then(Json::as_str),
        Some(cellcache::encode_metrics(&clean, key).as_str()),
        "Server: the environment changed the job"
    );
    assert!(
        !scratch.exists(),
        "nothing may write under SNOC_RESULTS_DIR"
    );
}

/// Submits `spec()` as a one-cell job and returns the parsed `results`
/// stream.
fn submit_and_fetch_results(socket: &Path) -> Vec<Json> {
    let submit = r#"{"op":"submit","wait":true,"cells":[{"label":"env","scenario":"MRAM-4TSB-WB","app":"sap","warmup":100,"measure":400}]}"#;
    let ack = &one_shot(socket, submit)[0];
    assert_eq!(ack.get("ok"), Some(&Json::Bool(true)), "ack: {ack:?}");
    let job = ack.get("job").and_then(Json::as_str).unwrap().to_string();
    one_shot(socket, &format!("{{\"op\":\"results\",\"job\":\"{job}\"}}"))
}

fn one_shot(socket: &Path, line: &str) -> Vec<Json> {
    let mut stream = UnixStream::connect(socket).expect("connect");
    writeln!(stream, "{line}").expect("send");
    stream.shutdown(Shutdown::Write).expect("half-close");
    BufReader::new(stream)
        .lines()
        .map(|l| Json::parse(&l.expect("read")).expect("parse"))
        .collect()
}
