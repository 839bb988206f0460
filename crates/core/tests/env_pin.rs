//! Environment pinning: `SNOC_*` fallbacks are resolved exactly once —
//! when a [`SweepRunner`] (or a serve-mode server) is constructed — so
//! mutating the environment mid-flight cannot alter a job that has
//! already been accepted.
//!
//! This test mutates process-wide environment variables, so it lives in
//! its own integration-test binary (its own process) and runs the whole
//! scenario in one `#[test]` to keep the mutations ordered.

use snoc_core::scenario::Scenario;
use snoc_core::serve::json::Json;
use snoc_core::serve::{ServeOptions, Server};
use snoc_core::sweep::{RunSpec, SweepRunner};
use snoc_workload::table3;
use std::io::{BufRead, BufReader, Write};
use std::net::Shutdown;
use std::os::unix::net::UnixStream;

fn spec(label: &str) -> RunSpec {
    let cfg = Scenario::SttRam4TsbWb
        .config()
        .rebuild()
        .cycles(100, 400)
        .build();
    RunSpec::homogeneous(label, cfg, table3::by_name("sap").unwrap())
}

fn clear_env() {
    for var in ["SNOC_AUDIT", "SNOC_TELEMETRY", "SNOC_FAULTS"] {
        std::env::remove_var(var);
    }
}

#[test]
fn env_is_resolved_at_construction_and_never_mid_flight() {
    clear_env();

    // 1. A runner constructed under a clean environment: flipping
    //    SNOC_AUDIT afterwards must not instrument its cells.
    let runner = SweepRunner::new().cache(false);
    std::env::set_var("SNOC_AUDIT", "1");
    let results = runner.run_grid("env-pin/pinned", vec![spec("pinned")]);
    let metrics = results[0].outcome.as_ref().expect("cell runs");
    assert!(
        metrics.audit.is_none(),
        "a mid-flight env mutation leaked into an accepted grid"
    );

    // 2. The fallback still works where it should: a runner constructed
    //    *while* the variable is set picks it up.
    let late = SweepRunner::new().cache(false);
    let results = late.run_grid("env-pin/late", vec![spec("late")]);
    assert!(
        results[0]
            .outcome
            .as_ref()
            .expect("cell runs")
            .audit
            .is_some(),
        "construction-time capture must still honour the fallback"
    );
    clear_env();

    // 3. Server level: ServeOptions::new snapshots the environment at
    //    startup; a client mutating it afterwards cannot instrument a
    //    job the server accepts later.
    let socket = std::env::temp_dir().join(format!("snoc-env-pin-{}.sock", std::process::id()));
    let server = Server::start(ServeOptions::new(&socket)).expect("start");
    std::env::set_var("SNOC_AUDIT", "1");
    let lines = submit_and_fetch_results(&socket);
    for v in &lines {
        if v.get("event").and_then(Json::as_str) == Some("result") {
            assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
            assert_eq!(
                v.get("instrumented"),
                Some(&Json::Bool(false)),
                "job accepted by a clean-env server came back instrumented: {v:?}"
            );
        }
    }
    server.shutdown();

    // 4. And the positive control: a server *started* under SNOC_AUDIT
    //    resolves it into every job at startup, visibly.
    let server = Server::start(ServeOptions::new(&socket)).expect("restart");
    let lines = submit_and_fetch_results(&socket);
    let mut results = 0;
    for v in &lines {
        if v.get("event").and_then(Json::as_str) == Some("result") {
            results += 1;
            assert_eq!(
                v.get("instrumented"),
                Some(&Json::Bool(true)),
                "startup env must resolve into accepted jobs: {v:?}"
            );
        }
    }
    assert_eq!(results, 1);
    server.shutdown();
    clear_env();
}

/// Submits a one-cell job and returns the parsed `results` stream.
fn submit_and_fetch_results(socket: &std::path::Path) -> Vec<Json> {
    let submit = r#"{"op":"submit","cells":[{"label":"env","scenario":"MRAM-4TSB-WB","app":"sap","warmup":100,"measure":400}]}"#;
    let ack = &one_shot(socket, submit)[0];
    assert_eq!(ack.get("ok"), Some(&Json::Bool(true)), "ack: {ack:?}");
    let job = ack.get("job").and_then(Json::as_str).unwrap().to_string();
    one_shot(socket, &format!("{{\"op\":\"results\",\"job\":\"{job}\"}}"))
}

fn one_shot(socket: &std::path::Path, line: &str) -> Vec<Json> {
    let mut stream = UnixStream::connect(socket).expect("connect");
    writeln!(stream, "{line}").expect("send");
    stream.shutdown(Shutdown::Write).expect("half-close");
    BufReader::new(stream)
        .lines()
        .map(|l| Json::parse(&l.expect("read")).expect("parse"))
        .collect()
}
