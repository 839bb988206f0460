//! A dependency-free micro-benchmark harness.
//!
//! The registry is unreachable in the offline build environments this
//! repository targets, so `snoc perf` times itself with this
//! Criterion-lite shim instead of pulling `criterion`: warm up, run
//! timed batches until a time budget is spent, report mean / best /
//! worst per iteration, and serialize the records as `snoc-bench/1`.

use snoc_core::serve::json::{escape, Json};
use std::time::{Duration, Instant};

/// One benchmark's timing summary.
#[derive(Debug, Clone, Copy, PartialEq)]
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

/// Times `f` under the given warm-up and measurement budgets and
/// prints a `name  mean ... (best ... worst ..., N iters)` line.
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
    timing
}

/// `base / new` as a speed-up factor.
pub fn ratio(base: Duration, new: Duration) -> f64 {
    base.as_nanos() as f64 / new.as_nanos().max(1) as f64
}

/// Serializes benchmark records into the `snoc-bench/1` JSON schema,
/// one bench object per line. A record with a namesake in `baseline`
/// also carries `baseline_*_ns` and `speedup_*` fields.
pub fn to_json(records: &[(String, Timing)], baseline: &[(String, Timing)]) -> String {
    let mut out = String::from("{\n  \"schema\": \"snoc-bench/1\",\n  \"benches\": [\n");
    for (i, (name, t)) in records.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": {}, \"iters\": {}, \"mean_ns\": {}, \"best_ns\": {}, \"worst_ns\": {}",
            escape(name),
            t.iters,
            t.mean.as_nanos(),
            t.best.as_nanos(),
            t.worst.as_nanos(),
        ));
        if let Some((_, b)) = baseline.iter().find(|(n, _)| n == name) {
            out.push_str(&format!(
                ", \"baseline_mean_ns\": {}, \"baseline_best_ns\": {}, \"speedup_mean\": {:.3}, \"speedup_best\": {:.3}",
                b.mean.as_nanos(),
                b.best.as_nanos(),
                ratio(b.mean, t.mean),
                ratio(b.best, t.best),
            ));
        }
        out.push_str(if i + 1 < records.len() { "},\n" } else { "}\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Parses a `snoc-bench/1` document back into records (extra fields,
/// such as the baseline comparison, are ignored).
///
/// # Errors
///
/// A document that is not JSON, or a bench without its timing fields.
pub fn from_json(doc: &str) -> Result<Vec<(String, Timing)>, String> {
    let doc = Json::parse(doc)?;
    let benches = doc.get("benches").and_then(Json::as_arr);
    let benches = benches.ok_or("no `benches` array")?;
    benches
        .iter()
        .map(|b| {
            let field = |k: &str| b.get(k).and_then(Json::as_u64).ok_or(format!("no `{k}`"));
            let ns = |k: &str| field(k).map(Duration::from_nanos);
            let name = b.get("name").and_then(Json::as_str).ok_or("no `name`")?;
            let timing = Timing {
                iters: field("iters")?,
                mean: ns("mean_ns")?,
                best: ns("best_ns")?,
                worst: ns("worst_ns")?,
            };
            Ok((name.to_string(), timing))
        })
        .collect()
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
        let doc = to_json(&records, &[]);
        assert_eq!(from_json(&doc), Ok(records.clone()));
        assert!(doc.contains("\"schema\": \"snoc-bench/1\""));
        assert!(!doc.contains("baseline"));

        // Against a baseline, the matching record gains the comparison
        // fields and still parses.
        let doc = to_json(&records[..1], &records[..1]);
        assert!(doc.contains("\"speedup_best\": 1.000"), "{doc}");
        assert_eq!(from_json(&doc), Ok(records[..1].to_vec()));
        assert!(from_json("{\"benches\": [{\"name\": \"x\"}]}").is_err());
    }

    #[test]
    fn durations_format_by_magnitude() {
        assert_eq!(fmt_duration(Duration::from_nanos(12)), "12 ns");
        assert_eq!(fmt_duration(Duration::from_micros(12)), "12.00 us");
        assert_eq!(fmt_duration(Duration::from_millis(12)), "12.00 ms");
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.00 s");
    }
}
