//! The process edge: the one place that reads the command line and the
//! environment.
//!
//! [`parse`] turns argv and every `SNOC_*` variable into a [`Command`]
//! and an [`Edge`] of checked values, or an error. Nothing has run,
//! bound or written by then, so a typo'd flag, an unknown experiment, a
//! misspelled variable or a malformed value exits 2 with usage and
//! leaves every file as it was. The subcommands below take only these
//! values; no library crate reads the environment.

use crate::sim::SimArgs;
use snoc_core::experiments;
use snoc_core::serve::ServeOptions;
use snoc_noc::{AuditConfig, FaultPlan, NocEnv, TelemetryConfig};
use std::path::PathBuf;

/// The usage text printed with every command-line error.
pub const USAGE: &str = "\
usage: snoc repro <experiment> [--quick]
       snoc perf [--smoke] [--out <path>] [--assert-within <pct>]
       snoc serve --socket <path> [--threads <n>] [--no-cache] [--cache-dir <dir>] [--verbose]
                  [--request <json-line> | --shutdown | --ping]
       snoc sim [--app NAME | --mix case1|case2] [--scenario NAME] [--cycles N] [--warmup N]
                [--seed N] [--mode profile|fullstack] [--regions 4|8|16]
                [--placement corner|stagger] [--hops H] [--list]";

/// The experiments `snoc repro` runs besides the registered sweeps.
pub const EXTRA_EXPERIMENTS: [&str; 2] = ["faults", "telemetry"];

/// What to run.
#[derive(Debug)]
pub enum Command {
    /// Regenerate one experiment's `results/` files.
    Repro {
        /// A registered experiment or one of [`EXTRA_EXPERIMENTS`].
        name: String,
        /// Quick scale instead of full scale.
        quick: bool,
    },
    /// Time the hot paths into a `snoc-bench/1` document.
    Perf(PerfArgs),
    /// Serve sweeps over a socket, or send one request line (`Some`)
    /// to a server.
    Serve(ServeOptions, Option<String>),
    /// Run one configuration and print its metrics.
    Sim(Box<SimArgs>),
}

/// `snoc perf` flags.
#[derive(Debug)]
pub struct PerfArgs {
    /// Fraction-of-a-second budgets, for CI.
    pub smoke: bool,
    /// Where the document goes.
    pub out: PathBuf,
    /// Fail when `kernels/network_step`'s best iteration is more than
    /// this many percent slower than the baseline's best.
    pub assert_within: Option<f64>,
}

/// Every `SNOC_*` variable, checked.
#[derive(Debug)]
pub struct Edge {
    /// `SNOC_THREADS`: sweep workers (default: every core).
    pub threads: usize,
    /// `SNOC_PROGRESS`: per-cell progress lines on stderr (default on).
    pub progress: bool,
    /// `SNOC_SWEEP_CACHE`: the cell cache (default on).
    pub cache: bool,
    /// `SNOC_CACHE_DIR`: on-disk root of the cell cache.
    pub cache_dir: Option<PathBuf>,
    /// `SNOC_RESULTS_DIR`: where `snoc repro` writes (default
    /// `results`).
    pub results_dir: PathBuf,
    /// `SNOC_BENCH_BASELINE`: the document `snoc perf` compares with.
    pub bench_baseline: Option<PathBuf>,
    /// `SNOC_AUDIT*`, `SNOC_TELEMETRY*` and `SNOC_FAULTS`.
    pub noc: NocEnv,
}

/// Every `SNOC_*` name [`Edge::from_vars`] accepts.
pub const VARIABLES: [&str; 12] = [
    "SNOC_THREADS",
    "SNOC_PROGRESS",
    "SNOC_SWEEP_CACHE",
    "SNOC_CACHE_DIR",
    "SNOC_RESULTS_DIR",
    "SNOC_BENCH_BASELINE",
    "SNOC_AUDIT",
    "SNOC_AUDIT_MAX_AGE",
    "SNOC_TELEMETRY",
    "SNOC_TELEMETRY_EPOCH",
    "SNOC_TELEMETRY_TRACE",
    "SNOC_FAULTS",
];

impl Edge {
    /// Checks the `SNOC_*` entries of `vars` (other names are
    /// ignored). `cores` is the default worker count.
    ///
    /// # Errors
    ///
    /// An unknown `SNOC_*` name, a value that does not parse, or a
    /// refinement (`SNOC_AUDIT_MAX_AGE`, `SNOC_TELEMETRY_EPOCH`,
    /// `SNOC_TELEMETRY_TRACE`) without the variable it refines.
    pub fn from_vars(vars: &[(String, String)], cores: usize) -> Result<Self, String> {
        let mut set: Vec<(&str, &str)> = Vec::new();
        for (name, value) in vars {
            if !name.starts_with("SNOC_") {
                continue;
            }
            if !VARIABLES.contains(&name.as_str()) {
                return Err(format!(
                    "unknown environment variable {name} (known: {})",
                    VARIABLES.join(", ")
                ));
            }
            set.push((name, value));
        }
        let get = |name: &str| set.iter().find(|(n, _)| *n == name).map(|&(_, v)| v);
        let path = |name: &str| match get(name) {
            Some("") => Err(format!("{name} is empty")),
            v => Ok(v.map(PathBuf::from)),
        };
        let switch = |name: &str| match get(name) {
            None | Some("1") => Ok(true),
            Some("0") => Ok(false),
            Some(v) => Err(format!("{name}={v}: expected 0 or 1")),
        };
        // The switch word of SNOC_AUDIT or SNOC_TELEMETRY, lowercased.
        let word = |name: &str, words: &[&str]| -> Result<Option<String>, String> {
            let Some(v) = get(name) else { return Ok(None) };
            let w = v.to_ascii_lowercase();
            match words.contains(&w.as_str()) {
                true => Ok(Some(w)),
                false => Err(format!("{name}={v}: expected {}", words.join(", "))),
            }
        };
        // A number refining the variable `parent`, which must be set.
        let refine = |name: &str, parent: &str| -> Result<Option<u64>, String> {
            match get(name).map(|v| number(name, v)).transpose()? {
                Some(_) if get(parent).is_none() => Err(format!("{name} needs {parent}")),
                v => Ok(v),
            }
        };

        let threads = match get("SNOC_THREADS").map(|v| number("SNOC_THREADS", v)) {
            None => cores.max(1),
            Some(Ok(0)) => return Err("SNOC_THREADS: must be at least 1".into()),
            Some(n) => n?,
        };
        let mut audit = word("SNOC_AUDIT", &["1", "true", "on", "panic"])?.map(|w| AuditConfig {
            panic_on_violation: w == "panic",
            ..AuditConfig::default()
        });
        if let (Some(cfg), Some(age)) = (&mut audit, refine("SNOC_AUDIT_MAX_AGE", "SNOC_AUDIT")?) {
            cfg.max_age = age;
        }
        let mut telemetry =
            word("SNOC_TELEMETRY", &["1", "true", "on"])?.map(|_| TelemetryConfig::default());
        let epoch = refine("SNOC_TELEMETRY_EPOCH", "SNOC_TELEMETRY")?;
        let trace = refine("SNOC_TELEMETRY_TRACE", "SNOC_TELEMETRY")?;
        if let Some(cfg) = &mut telemetry {
            cfg.epoch = epoch.unwrap_or(cfg.epoch);
            cfg.trace_capacity = trace.map_or(cfg.trace_capacity, |t| t as usize);
        }
        let faults = get("SNOC_FAULTS")
            .map(|v| FaultPlan::parse(v).map_err(|e| format!("SNOC_FAULTS={v}: {e}")))
            .transpose()?
            .flatten();

        Ok(Self {
            threads,
            progress: switch("SNOC_PROGRESS")?,
            cache: switch("SNOC_SWEEP_CACHE")?,
            cache_dir: path("SNOC_CACHE_DIR")?,
            results_dir: path("SNOC_RESULTS_DIR")?.unwrap_or_else(|| PathBuf::from("results")),
            bench_baseline: path("SNOC_BENCH_BASELINE")?,
            noc: NocEnv {
                audit,
                telemetry,
                faults,
            },
        })
    }
}

/// Checks the command line (without the program name) and the
/// environment.
///
/// # Errors
///
/// Anything [`Edge::from_vars`] rejects; an unknown subcommand, flag,
/// operand or experiment; a missing or malformed operand; and
/// `snoc perf` under `SNOC_AUDIT`, `SNOC_TELEMETRY` or `SNOC_FAULTS`
/// (an instrumented timing must never become the perf record).
pub fn parse(
    args: &[String],
    vars: &[(String, String)],
    cores: usize,
) -> Result<(Command, Edge), String> {
    let edge = Edge::from_vars(vars, cores)?;
    let (sub, rest) = args.split_first().ok_or("no subcommand")?;
    let mut rest = rest.iter().map(String::as_str);
    let command = match sub.as_str() {
        "repro" => parse_repro(&mut rest)?,
        "perf" => {
            for var in ["SNOC_AUDIT", "SNOC_TELEMETRY", "SNOC_FAULTS"] {
                if vars.iter().any(|(n, _)| n == var) {
                    return Err(format!(
                        "snoc perf times the uninstrumented simulator: unset {var}"
                    ));
                }
            }
            Command::Perf(parse_perf(&mut rest)?)
        }
        "serve" => parse_serve(&mut rest)?,
        "sim" => Command::Sim(Box::new(SimArgs::parse(&mut rest)?)),
        other => return Err(format!("unknown subcommand `{other}`")),
    };
    Ok((command, edge))
}

/// The next argument, as the operand of `flag`.
pub(crate) fn operand<'a>(
    args: &mut impl Iterator<Item = &'a str>,
    flag: &str,
    what: &str,
) -> Result<&'a str, String> {
    args.next().ok_or_else(|| format!("{flag} requires {what}"))
}

/// `value` as the number `what` (a flag or a variable) takes.
pub(crate) fn number<T: std::str::FromStr>(what: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{what}: `{value}` is not a valid number"))
}

fn parse_repro<'a>(args: &mut impl Iterator<Item = &'a str>) -> Result<Command, String> {
    let mut name = None;
    let mut quick = false;
    for arg in args {
        match arg {
            "--quick" => quick = true,
            flag if flag.starts_with('-') => {
                return Err(format!("unrecognized argument `{flag}`"));
            }
            _ if name.is_some() => return Err(format!("unexpected operand `{arg}`")),
            _ if experiments::by_name(arg).is_none() && !EXTRA_EXPERIMENTS.contains(&arg) => {
                let known: Vec<&str> = experiments::REGISTRY
                    .iter()
                    .map(|e| e.name)
                    .chain(EXTRA_EXPERIMENTS)
                    .collect();
                return Err(format!(
                    "unknown experiment `{arg}` (known: {})",
                    known.join(", ")
                ));
            }
            _ => name = Some(arg.to_string()),
        }
    }
    Ok(Command::Repro {
        name: name.ok_or("snoc repro needs an experiment")?,
        quick,
    })
}

fn parse_perf<'a>(args: &mut impl Iterator<Item = &'a str>) -> Result<PerfArgs, String> {
    let mut perf = PerfArgs {
        smoke: false,
        out: PathBuf::from("BENCH_hotpath.json"),
        assert_within: None,
    };
    while let Some(arg) = args.next() {
        match arg {
            "--smoke" => perf.smoke = true,
            "--out" => perf.out = operand(args, arg, "a path")?.into(),
            "--assert-within" => {
                let v = operand(args, arg, "a percentage")?;
                let pct: f64 = number(arg, v)?;
                if !pct.is_finite() || pct < 0.0 {
                    return Err(format!("--assert-within: `{v}` must be >= 0"));
                }
                perf.assert_within = Some(pct);
            }
            _ => return Err(format!("unrecognized argument `{arg}`")),
        }
    }
    Ok(perf)
}

fn parse_serve<'a>(args: &mut impl Iterator<Item = &'a str>) -> Result<Command, String> {
    let mut opts = ServeOptions::new("");
    let (mut socket, mut request) = (None, None);
    while let Some(arg) = args.next() {
        match arg {
            "--socket" => socket = Some(operand(args, arg, "a path")?),
            "--threads" => {
                opts.threads = number(arg, operand(args, arg, "a count")?)?;
                if opts.threads == 0 {
                    return Err("--threads: must be at least 1".into());
                }
            }
            "--no-cache" => opts.cache = false,
            "--cache-dir" => opts.cache_dir = Some(operand(args, arg, "a directory")?.into()),
            "--verbose" => opts.verbose = true,
            "--request" => request = Some(operand(args, arg, "a JSON line")?.to_string()),
            "--shutdown" => request = Some(r#"{"op":"shutdown"}"#.to_string()),
            "--ping" => request = Some(r#"{"op":"ping"}"#.to_string()),
            _ => return Err(format!("unrecognized argument `{arg}`")),
        }
    }
    opts.socket = socket.ok_or("--socket is required")?.into();
    Ok(Command::Serve(opts, request))
}

/// `snoc`'s `main`: reads argv and the environment once, then runs the
/// subcommand. Returns the process exit code.
pub fn main() -> i32 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut vars = Vec::new();
    for (name, value) in std::env::vars_os() {
        let name = name.to_string_lossy().into_owned();
        if !name.starts_with("SNOC_") {
            continue;
        }
        match value.into_string() {
            Ok(value) => vars.push((name, value)),
            Err(_) => return usage_error(&format!("{name} is not valid UTF-8")),
        }
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    match parse(&args, &vars, cores) {
        Ok((command, edge)) => crate::run(command, &edge),
        Err(e) => usage_error(&e),
    }
}

fn usage_error(message: &str) -> i32 {
    eprintln!("error: {message}\n{USAGE}");
    2
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(pairs: &[(&str, &str)]) -> Result<Edge, String> {
        let vars: Vec<_> = pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        Edge::from_vars(&vars, 4)
    }

    fn refused(pairs: &[(&str, &str)]) -> bool {
        env(pairs).is_err()
    }

    fn cli(args: &[&str], vars: &[(&str, &str)]) -> Result<Command, String> {
        let args: Vec<_> = args.iter().map(|s| s.to_string()).collect();
        let vars: Vec<_> = vars
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        parse(&args, &vars, 4).map(|(c, _)| c)
    }

    #[test]
    fn defaults_and_every_variable() {
        let edge = env(&[("PATH", "/bin"), ("SNOCK", "x")]).unwrap();
        assert_eq!((edge.threads, edge.progress, edge.cache), (4, true, true));
        assert_eq!(edge.results_dir, PathBuf::from("results"));
        assert_eq!((edge.cache_dir, edge.bench_baseline), (None, None));
        assert_eq!(edge.noc, NocEnv::default());

        let edge = env(&[
            ("SNOC_THREADS", "3"),
            ("SNOC_PROGRESS", "0"),
            ("SNOC_SWEEP_CACHE", "0"),
            ("SNOC_CACHE_DIR", "c"),
            ("SNOC_RESULTS_DIR", "r"),
            ("SNOC_BENCH_BASELINE", "b.json"),
            ("SNOC_AUDIT", "panic"),
            ("SNOC_AUDIT_MAX_AGE", "7"),
            ("SNOC_TELEMETRY", "on"),
            ("SNOC_TELEMETRY_EPOCH", "32"),
            ("SNOC_TELEMETRY_TRACE", "8"),
            ("SNOC_FAULTS", "seed=9"),
        ])
        .unwrap();
        assert_eq!((edge.threads, edge.progress, edge.cache), (3, false, false));
        assert_eq!(edge.cache_dir, Some(PathBuf::from("c")));
        assert_eq!(edge.results_dir, PathBuf::from("r"));
        assert_eq!(edge.bench_baseline, Some(PathBuf::from("b.json")));
        let audit = edge.noc.audit.unwrap();
        assert!(audit.panic_on_violation && audit.max_age == 7);
        let telemetry = edge.noc.telemetry.unwrap();
        assert_eq!((telemetry.epoch, telemetry.trace_capacity), (32, 8));
        assert_eq!(edge.noc.faults.unwrap().seed, 9);
        assert_eq!(env(&[("SNOC_FAULTS", "0")]).unwrap().noc.faults, None);
        let audit = env(&[("SNOC_AUDIT", "TRUE")]).unwrap().noc.audit;
        assert_eq!(audit, Some(AuditConfig::default()));
    }

    #[test]
    fn unknown_names_are_refused() {
        assert!(env(&[("SNOC_AUIDT", "1")])
            .unwrap_err()
            .contains("SNOC_AUIDT"));
        assert!(refused(&[("SNOC_SWEEP_WARM", "0")]));
        assert!(refused(&[("SNOC_BENCH_JSON", "x.json")]));
    }

    #[test]
    fn malformed_values_are_refused() {
        for bad in ["0", "yes", "off", ""] {
            assert!(refused(&[("SNOC_AUDIT", bad)]), "SNOC_AUDIT={bad}");
        }
        for bad in ["0", "panic", "2"] {
            assert!(refused(&[("SNOC_TELEMETRY", bad)]), "SNOC_TELEMETRY={bad}");
        }
        for var in ["SNOC_PROGRESS", "SNOC_SWEEP_CACHE"] {
            for bad in ["", "2", "off", "true"] {
                assert!(refused(&[(var, bad)]), "{var}={bad}");
            }
        }
        for bad in ["abc", "0", "-1", "", "1.5"] {
            assert!(refused(&[("SNOC_THREADS", bad)]), "SNOC_THREADS={bad}");
        }
        for bad in ["bogus=1", "tsb=often", "seed"] {
            assert!(refused(&[("SNOC_FAULTS", bad)]), "SNOC_FAULTS={bad}");
        }
        for var in ["SNOC_CACHE_DIR", "SNOC_RESULTS_DIR", "SNOC_BENCH_BASELINE"] {
            assert!(refused(&[(var, "")]), "{var} empty");
        }
    }

    #[test]
    fn refinements_must_parse_and_need_their_switch() {
        for (var, switch) in [
            ("SNOC_AUDIT_MAX_AGE", "SNOC_AUDIT"),
            ("SNOC_TELEMETRY_EPOCH", "SNOC_TELEMETRY"),
            ("SNOC_TELEMETRY_TRACE", "SNOC_TELEMETRY"),
        ] {
            for bad in ["x", "-5"] {
                assert!(refused(&[(switch, "1"), (var, bad)]), "{var}={bad}");
            }
            assert!(refused(&[(var, "5")]), "{var} without {switch}");
        }
    }

    #[test]
    fn perf_refuses_instrumentation() {
        for var in ["SNOC_AUDIT", "SNOC_TELEMETRY", "SNOC_FAULTS"] {
            let e = cli(&["perf", "--smoke"], &[(var, "1")]).unwrap_err();
            assert!(e.contains(var), "{e}");
            assert!(cli(&["repro", "fig3"], &[(var, "1")]).is_ok());
        }
    }

    #[test]
    fn command_lines() {
        let ok = |args: &[&str]| cli(args, &[]).unwrap_or_else(|e| panic!("{args:?}: {e}"));
        assert!(matches!(
            ok(&["repro", "fig3", "--quick"]),
            Command::Repro { name, quick: true } if name == "fig3"
        ));
        for name in ["table2", "scaling", "faults", "telemetry"] {
            ok(&["repro", name]);
        }
        let Command::Perf(perf) = ok(&["perf", "--smoke", "--out", "x", "--assert-within", "8"])
        else {
            panic!("perf parses");
        };
        assert!(perf.smoke && perf.out == std::path::Path::new("x"));
        assert_eq!(perf.assert_within, Some(8.0));
        let Command::Serve(opts, request) =
            ok(&["serve", "--socket", "s", "--threads", "2", "--ping"])
        else {
            panic!("serve parses");
        };
        assert_eq!((opts.socket, opts.threads), (PathBuf::from("s"), 2));
        assert_eq!(request.as_deref(), Some(r#"{"op":"ping"}"#));
        for bad in [
            "",
            "repro-fig3",
            "--quick",
            "repro",
            "repro fig99",
            "repro table2 --qiuck",
            "repro faults --smoke",
            "repro fig3 fig6",
            "perf --asert-within 8",
            "perf --assert-within -1",
            "perf --out",
            "serve",
            "serve --socket s --requets {}",
            "serve --socket s --threads 0",
            "sim --bogus",
        ] {
            let bad: Vec<&str> = bad.split_whitespace().collect();
            assert!(cli(&bad, &[]).is_err(), "{bad:?}");
        }
    }
}
