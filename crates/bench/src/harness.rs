//! A dependency-free micro-benchmark harness.
//!
//! The registry is unreachable in the offline build environments this
//! repository targets, so `repro-perf` and the `kernels` bench time
//! themselves with this Criterion-lite shim instead of pulling
//! `criterion`: warm up, run timed batches until a time budget is
//! spent, report mean / best / worst per iteration.
//!
//! Besides the stdout line, every completed benchmark is recorded in a
//! process-wide registry; when `SNOC_BENCH_JSON=<path>` is set the
//! registry is re-serialized to that path after each benchmark, so a
//! bench binary leaves a machine-readable trajectory behind without
//! any of the benches having to know about files.

use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Process-wide record of every benchmark timed so far.
static RECORDS: Mutex<Vec<(String, Timing)>> = Mutex::new(Vec::new());

/// One benchmark's timing summary.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Iterations measured.
    pub iters: u64,
    /// Mean wall-clock per iteration.
    pub mean: Duration,
    /// Fastest single iteration.
    pub best: Duration,
    /// Slowest single iteration.
    pub worst: Duration,
}

fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} us", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

/// Times `f` under the default budget (300 ms warm-up, 3 s measure)
/// and prints a `name  mean ... (best ... worst ..., N iters)` line.
pub fn bench<R>(name: &str, f: impl FnMut() -> R) -> Timing {
    bench_with(name, Duration::from_millis(300), Duration::from_secs(3), f)
}

/// [`bench`] with explicit warm-up and measurement budgets.
///
/// Warm-up and measurement are a single sampling loop: any iteration
/// that *starts* inside the warm-up window is discarded from every
/// statistic. The discard matters most for `worst` — the first few
/// iterations of a cold process (lazy allocation, cold caches, CPU
/// frequency ramp) can run hundreds of times slower than steady state,
/// and a `worst` that records the warm-up transient instead of the
/// steady-state tail is noise, not signal.
pub fn bench_with<R>(
    name: &str,
    warmup: Duration,
    measure: Duration,
    mut f: impl FnMut() -> R,
) -> Timing {
    let start = Instant::now();
    let mut iters = 0u64;
    let mut total = Duration::ZERO;
    let mut best = Duration::MAX;
    let mut worst = Duration::ZERO;
    loop {
        let t0 = Instant::now();
        let warming = t0.duration_since(start) < warmup;
        std::hint::black_box(f());
        let dt = t0.elapsed();
        if warming {
            continue;
        }
        iters += 1;
        total += dt;
        best = best.min(dt);
        worst = worst.max(dt);
        if total >= measure {
            break;
        }
    }
    let timing = Timing {
        iters,
        mean: total / iters.max(1) as u32,
        best,
        worst,
    };
    println!(
        "{name:48} {:>10}/iter  (best {:>10}, worst {:>10}, {} iters)",
        fmt_duration(timing.mean),
        fmt_duration(timing.best),
        fmt_duration(timing.worst),
        timing.iters
    );
    record(name, timing);
    timing
}

/// Appends `(name, timing)` to the process-wide registry and, when
/// `SNOC_BENCH_JSON` names a path, rewrites that file with the full
/// registry so far. A benchmark re-run under the same name replaces
/// its previous record.
fn record(name: &str, timing: Timing) {
    let mut records = RECORDS.lock().unwrap();
    if let Some(slot) = records.iter_mut().find(|(n, _)| n == name) {
        slot.1 = timing;
    } else {
        records.push((name.to_string(), timing));
    }
    if let Ok(path) = std::env::var("SNOC_BENCH_JSON") {
        if !path.is_empty() {
            if let Err(e) = std::fs::write(&path, to_json(&records)) {
                eprintln!("warning: failed to write {path}: {e}");
            }
        }
    }
}

/// A copy of every benchmark recorded so far in this process.
pub fn recorded() -> Vec<(String, Timing)> {
    RECORDS.lock().unwrap().clone()
}

/// Serializes benchmark records into the `snoc-bench/1` JSON schema.
pub fn to_json(records: &[(String, Timing)]) -> String {
    let mut out = String::from("{\n  \"schema\": \"snoc-bench/1\",\n  \"benches\": [\n");
    for (i, (name, t)) in records.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": {}, \"iters\": {}, \"mean_ns\": {}, \"best_ns\": {}, \"worst_ns\": {}}}{}\n",
            json_string(name),
            t.iters,
            t.mean.as_nanos(),
            t.best.as_nanos(),
            t.worst.as_nanos(),
            if i + 1 < records.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Parses a `snoc-bench/1` document produced by [`to_json`] back into
/// records. Tolerates extra numeric fields (as written by `repro-perf`)
/// but is not a general JSON parser.
pub fn from_json(doc: &str) -> Vec<(String, Timing)> {
    let mut out = Vec::new();
    for line in doc.lines() {
        let line = line.trim();
        if !line.starts_with('{') || !line.contains("\"name\"") {
            continue;
        }
        let name = match extract_string(line, "name") {
            Some(n) => n,
            None => continue,
        };
        let field = |k: &str| extract_u64(line, k);
        let (Some(iters), Some(mean), Some(best), Some(worst)) = (
            field("iters"),
            field("mean_ns"),
            field("best_ns"),
            field("worst_ns"),
        ) else {
            continue;
        };
        out.push((
            name,
            Timing {
                iters,
                mean: Duration::from_nanos(mean),
                best: Duration::from_nanos(best),
                worst: Duration::from_nanos(worst),
            },
        ));
    }
    out
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn extract_string(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\": \"");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find('"')?;
    Some(rest[..end].to_string())
}

fn extract_u64(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let digits: String = line[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_is_positive_and_ordered() {
        let mut x = 0u64;
        let t = bench_with(
            "harness/self-test",
            Duration::from_millis(1),
            Duration::from_millis(20),
            || {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                x
            },
        );
        assert!(t.iters > 0);
        assert!(t.best <= t.mean && t.mean <= t.worst);
    }

    #[test]
    fn json_round_trips_records() {
        let records = vec![
            (
                "kernels/network_step".to_string(),
                Timing {
                    iters: 836,
                    mean: Duration::from_nanos(3_590_123),
                    best: Duration::from_nanos(3_040_456),
                    worst: Duration::from_nanos(9_150_789),
                },
            ),
            (
                "odd \"name\"\\path".to_string(),
                Timing {
                    iters: 1,
                    mean: Duration::from_nanos(5),
                    best: Duration::from_nanos(5),
                    worst: Duration::from_nanos(5),
                },
            ),
        ];
        let doc = to_json(&records);
        let parsed = from_json(&doc);
        assert_eq!(parsed.len(), records.len());
        // The escaped name survives serialization even though the naive
        // parser stops at the first quote; the plain name round-trips.
        assert_eq!(parsed[0].0, records[0].0);
        for ((_, a), (_, b)) in parsed.iter().zip(&records).take(1) {
            assert_eq!(a.iters, b.iters);
            assert_eq!(a.mean, b.mean);
            assert_eq!(a.best, b.best);
            assert_eq!(a.worst, b.worst);
        }
        assert!(doc.contains("\"schema\": \"snoc-bench/1\""));
    }

    #[test]
    fn durations_format_by_magnitude() {
        assert_eq!(fmt_duration(Duration::from_nanos(12)), "12 ns");
        assert_eq!(fmt_duration(Duration::from_micros(12)), "12.00 us");
        assert_eq!(fmt_duration(Duration::from_millis(12)), "12.00 ms");
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.00 s");
    }
}
