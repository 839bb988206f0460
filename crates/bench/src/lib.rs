//! The `snoc` command: regenerates every table and figure of the
//! ISCA'11 STT-RAM NoC paper, times the hot paths, serves sweeps and
//! runs single configurations.
//!
//! `cli` is the process edge: it reads argv and every `SNOC_*`
//! variable once, checks them, and hands explicit values to the
//! subcommands (`repro`, `perf`, `serve`, `sim`).

mod cli;
mod faults;
mod harness;
mod perf;
mod repro;
mod serve;
mod sim;
mod telemetry;

pub use cli::main;

use cli::{Command, Edge};
use snoc_core::report::{self, Rendered};
use snoc_core::system::System;
use snoc_noc::NocEnv;
use std::path::Path;

/// Runs a checked command. Returns the process exit code.
fn run(command: Command, edge: &Edge) -> i32 {
    let outcome = match command {
        Command::Repro { name, quick } => repro::run(&name, quick, edge),
        Command::Perf(args) => perf::run(&args, edge.bench_baseline.as_deref()),
        Command::Serve(opts, request) => return serve::run(opts, request.as_deref(), &edge.noc),
        Command::Sim(args) => {
            sim::run(&args, &edge.noc);
            Ok(())
        }
    };
    match outcome {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}

/// Switches on the instrumentation `noc` asks for.
fn instrument(system: &mut System, noc: &NocEnv) {
    if let Some(plan) = noc.faults {
        system.enable_faults(plan);
    }
    if let Some(cfg) = noc.audit {
        system.enable_audit(cfg);
    }
    if let Some(cfg) = noc.telemetry {
        system.enable_telemetry(cfg);
    }
}

/// Writes `<dir>/<name>.{txt,csv}` and says so on stderr.
///
/// # Errors
///
/// A file that could not be written.
fn save(dir: &Path, name: &str, result: &Rendered) -> Result<(), String> {
    let (txt, csv) = report::save(dir, name, result)
        .map_err(|e| format!("could not write {name} under {}: {e}", dir.display()))?;
    eprintln!("wrote {} and {}", txt.display(), csv.display());
    Ok(())
}
