//! Content-addressed cache of sweep-cell results.
//!
//! A sweep cell is a pure function: `(SystemConfig, workload, drive
//! mode) -> RunMetrics`, bit-for-bit deterministic by construction.
//! [`cell_key`] folds exactly those inputs through the stable hasher
//! in `snoc_common::fingerprint` (never the standard library's
//! unstable `Hash`), and [`CellCache`] memoizes results under that
//! key — in an in-process map always, and in an opt-in on-disk store
//! when a directory is configured
//! ([`SweepRunner::cache_dir`](crate::sweep::SweepRunner::cache_dir);
//! `snoc` passes `SNOC_CACHE_DIR` there).
//!
//! Only *plain* cells are cacheable: a cell carrying a fault plan, an
//! audit request or a telemetry request recomputes every time (its
//! metrics drag `AuditReport`/`TelemetrySummary`/`FaultSummary`
//! payloads that the codec deliberately does not serialize), and
//! failed cells are never stored.
//!
//! # On-disk format and trust
//!
//! One file per key, named by the key's 32 hex digits, in a
//! line-oriented text format headed by
//! `snoc-cell/2 snoc-bench/1 <crate version>` and terminated by an
//! FNV-1a-64 checksum of everything above it. Floats travel as IEEE
//! bit patterns, so a round-trip is exact. A reader trusts nothing: a
//! version/schema mismatch means the entry is stale and is silently
//! recomputed; any parse or checksum failure means the entry is
//! corrupt and is recomputed with a
//! [`RunObserver::cache_note`](crate::observer::RunObserver::cache_note)
//! — never a panic, never a silently wrong reuse.

use crate::metrics::RunMetrics;
use crate::sweep::RunSpec;
use crate::system::DriveMode;
use snoc_common::fingerprint::{fnv1a_64, Fingerprint, StableHasher};
use snoc_common::stats::Histogram;
use snoc_energy::EnergyBreakdown;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Schema tag of the on-disk cell format. Bump on any codec or
/// fingerprint change: stale entries are then ignored and recomputed.
const CELL_SCHEMA: &str = "snoc-cell/2";
/// The bench document schema this cache's stats vocabulary tracks.
const BENCH_SCHEMA: &str = "snoc-bench/1";

/// The content key of one sweep cell, or `None` when the cell is not
/// cacheable (fault/audit/telemetry instrumentation attached).
///
/// The key covers every modeled input: the full configuration
/// (including seed and warm-up/measure cycles, i.e. the scale) via
/// [`snoc_common::config::SystemConfig::hash_into`], the workload
/// name, the per-core application assignment, and the drive mode. It
/// deliberately excludes the cell label (presentation only).
pub fn cell_key(spec: &RunSpec) -> Option<Fingerprint> {
    if spec.faults.is_some() || spec.audit.is_some() || spec.telemetry.is_some() {
        return None;
    }
    let mut h = StableHasher::new();
    h.write_str(CELL_SCHEMA);
    spec.cfg.hash_into(&mut h);
    h.write_str(&spec.workload.name);
    h.write_usize(spec.workload.apps.len());
    for app in &spec.workload.apps {
        h.write_str(app.name);
    }
    h.write_u8(match spec.mode {
        DriveMode::Profile => 0,
        DriveMode::FullStack => 1,
    });
    Some(h.finish())
}

/// Where a cache hit was served from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheSource {
    /// The in-process map of this runner.
    Memory,
    /// The on-disk store.
    Disk,
}

/// The outcome of a cache probe.
#[derive(Debug, Default)]
pub struct Lookup {
    /// The memoized metrics, when the probe hit.
    pub metrics: Option<RunMetrics>,
    /// Where the hit came from.
    pub source: Option<CacheSource>,
    /// A diagnostic worth surfacing (corrupt entry, unreadable file);
    /// present only on a miss that found *something* untrustworthy.
    pub note: Option<String>,
}

/// A two-level (in-process + optional on-disk) store of cell results.
#[derive(Debug)]
pub struct CellCache {
    mem: Mutex<HashMap<Fingerprint, RunMetrics>>,
    dir: Option<PathBuf>,
}

impl CellCache {
    /// An empty cache, with an on-disk store rooted at `dir` when
    /// given.
    pub fn new(dir: Option<PathBuf>) -> Self {
        Self {
            mem: Mutex::new(HashMap::new()),
            dir,
        }
    }

    /// The file path of `key`'s entry, when a disk store is
    /// configured.
    pub fn entry_path(&self, key: Fingerprint) -> Option<PathBuf> {
        self.dir.as_ref().map(|d| d.join(format!("{key}.cell")))
    }

    /// The in-process map, recovered from poisoning.
    ///
    /// The cache is best-effort bookkeeping: a worker that panics
    /// while the map mutex is held (an OOM mid-`insert`, an assertion
    /// in a key's `Eq`) must not cascade into every *other* worker
    /// panicking on `lock().unwrap()` forever after — one isolated
    /// cell failure would take down the whole runner or server. The
    /// map's state is always coherent from the lock's point of view
    /// (`HashMap` insert/get never leave it torn across a panic we
    /// could observe), so the poison flag is cleared and the guard
    /// handed out.
    fn mem(&self) -> MutexGuard<'_, HashMap<Fingerprint, RunMetrics>> {
        self.mem.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Probes memory, then disk. A disk hit is promoted into the
    /// in-process map; a corrupt or stale disk entry is reported as a
    /// miss (with a note when corrupt) so the caller recomputes.
    pub fn lookup(&self, key: Fingerprint) -> Lookup {
        if let Some(m) = self.mem().get(&key) {
            return Lookup {
                metrics: Some(m.clone()),
                source: Some(CacheSource::Memory),
                note: None,
            };
        }
        let Some(path) = self.entry_path(key) else {
            return Lookup::default();
        };
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Lookup::default(),
            Err(e) => {
                return Lookup {
                    note: Some(format!("unreadable cache entry {}: {e}", path.display())),
                    ..Lookup::default()
                }
            }
        };
        match decode(&text, key) {
            Ok(m) => {
                self.mem().insert(key, m.clone());
                Lookup {
                    metrics: Some(m),
                    source: Some(CacheSource::Disk),
                    note: None,
                }
            }
            Err(DecodeError::Stale) => Lookup::default(),
            Err(DecodeError::Corrupt(why)) => Lookup {
                note: Some(format!(
                    "corrupt cache entry {} ({why}); recomputing",
                    path.display()
                )),
                ..Lookup::default()
            },
        }
    }

    /// Memoizes a computed result in the in-process map and, when a
    /// disk store is configured, on disk.
    ///
    /// # Errors
    ///
    /// Returns a diagnostic when the disk write fails (the in-process
    /// insert always succeeds; the cache stays best-effort).
    pub fn store(&self, key: Fingerprint, metrics: &RunMetrics) -> Result<(), String> {
        self.mem().insert(key, metrics.clone());
        let Some(path) = self.entry_path(key) else {
            return Ok(());
        };
        let doc = encode(metrics, key);
        let write = || -> std::io::Result<()> {
            if let Some(dir) = path.parent() {
                std::fs::create_dir_all(dir)?;
            }
            // Write-then-rename so a concurrent reader never sees a
            // half-written entry (checksum would catch it anyway).
            let tmp = tmp_store_path(&path);
            std::fs::write(&tmp, &doc)?;
            std::fs::rename(&tmp, &path)
        };
        write().map_err(|e| format!("could not write cache entry {}: {e}", path.display()))
    }
}

/// A scratch path for writing `path`'s entry before the atomic rename.
///
/// The suffix must be unique per *writer*, not per process: two
/// workers of one process storing the same key at once would otherwise
/// interleave their `fs::write`s on a single tmp file and rename a
/// corrupt byte-mix into place — the checksum then flags the entry on
/// every later probe and the cache silently recomputes that cell
/// forever. A process-wide counter keeps concurrent writers on
/// disjoint tmp files (last rename wins, and every candidate is a
/// complete, valid document); the pid keeps concurrent *processes*
/// sharing one cache directory apart.
fn tmp_store_path(path: &Path) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    path.with_extension(format!("tmp.{:x}.{n:x}", std::process::id()))
}

/// Serializes plain-cell metrics (no audit/telemetry/fault
/// attachments) in the exact on-disk cell format, sealed by `key`. The
/// sweep server reuses this codec for its result payloads so a client
/// round-trip is bit-exact.
pub fn encode_metrics(metrics: &RunMetrics, key: Fingerprint) -> String {
    encode(metrics, key)
}

/// Decodes a document produced by [`encode_metrics`] under the same
/// `key`, rejecting stale or tampered text with a diagnostic.
pub fn decode_metrics(text: &str, key: Fingerprint) -> Result<RunMetrics, String> {
    decode(text, key).map_err(|e| match e {
        DecodeError::Stale => "stale schema/version".to_string(),
        DecodeError::Corrupt(why) => why,
    })
}

enum DecodeError {
    /// Different schema or crate version: the entry is from another
    /// world, not evidence of damage.
    Stale,
    /// The entry claims to be ours but does not parse or check out.
    Corrupt(String),
}

fn header() -> String {
    format!("{CELL_SCHEMA} {BENCH_SCHEMA} {}", env!("CARGO_PKG_VERSION"))
}

fn push_f64s(out: &mut String, name: &str, values: &[f64]) {
    out.push_str(name);
    for v in values {
        out.push_str(&format!(" {:016x}", v.to_bits()));
    }
    out.push('\n');
}

fn push_u64s(out: &mut String, name: &str, values: &[u64]) {
    out.push_str(name);
    for v in values {
        out.push_str(&format!(" {v}"));
    }
    out.push('\n');
}

/// Serializes plain-cell metrics (`audit`/`telemetry`/`faults` must be
/// `None`; [`cell_key`] guarantees cacheable cells satisfy that).
fn encode(m: &RunMetrics, key: Fingerprint) -> String {
    debug_assert!(
        m.audit.is_none() && m.telemetry.is_none() && m.faults.is_none(),
        "instrumented cells are not cacheable"
    );
    let mut out = String::new();
    out.push_str(&header());
    out.push('\n');
    out.push_str(&format!("key {key}\n"));
    push_u64s(&mut out, "cycles", &[m.cycles]);
    push_u64s(&mut out, "committed", &m.per_core_committed);
    push_f64s(
        &mut out,
        "latencies",
        &[
            m.net_request_latency,
            m.net_response_latency,
            m.bank_queue_wait,
            m.bank_service,
            m.uncore_rtt,
            m.uncore_rtt_p95,
        ],
    );
    push_u64s(
        &mut out,
        "counts",
        &[
            m.bank_reads,
            m.bank_writes,
            m.mem_fetches,
            m.held_packets,
            m.held_cycles,
        ],
    );
    push_u64s(&mut out, "hist_edges", m.post_write_gaps.edges());
    push_u64s(&mut out, "hist_counts", m.post_write_gaps.counts());
    push_f64s(
        &mut out,
        "shape",
        &[
            m.delayable_fraction,
            m.child_queue_mean,
            m.queue_mean_by_hops[0],
            m.queue_mean_by_hops[1],
            m.queue_mean_by_hops[2],
        ],
    );
    push_f64s(
        &mut out,
        "energy",
        &[
            m.energy.noc_dynamic_nj,
            m.energy.noc_leakage_nj,
            m.energy.cache_dynamic_nj,
            m.energy.cache_leakage_nj,
        ],
    );
    out.push_str(&format!("checksum {:016x}\n", fnv1a_64(out.as_bytes())));
    out
}

/// One `name v0 v1 ...` line, strictly in encode order.
fn fields<'a>(lines: &mut std::str::Lines<'a>, name: &str) -> Result<Vec<&'a str>, DecodeError> {
    let line = lines
        .next()
        .ok_or_else(|| DecodeError::Corrupt(format!("missing {name} line")))?;
    let mut parts = line.split(' ');
    if parts.next() != Some(name) {
        return Err(DecodeError::Corrupt(format!("expected {name} line")));
    }
    Ok(parts.collect())
}

fn u64s(raw: Vec<&str>, name: &str) -> Result<Vec<u64>, DecodeError> {
    raw.into_iter()
        .map(|s| {
            s.parse()
                .map_err(|_| DecodeError::Corrupt(format!("bad integer in {name}")))
        })
        .collect()
}

fn f64s(raw: Vec<&str>, name: &str, want: usize) -> Result<Vec<f64>, DecodeError> {
    if raw.len() != want {
        return Err(DecodeError::Corrupt(format!(
            "{name} holds {} values, expected {want}",
            raw.len()
        )));
    }
    raw.into_iter()
        .map(|s| {
            u64::from_str_radix(s, 16)
                .map(f64::from_bits)
                .map_err(|_| DecodeError::Corrupt(format!("bad float bits in {name}")))
        })
        .collect()
}

fn decode(text: &str, key: Fingerprint) -> Result<RunMetrics, DecodeError> {
    // Checksum first: everything up to and including the newline
    // before the checksum line must hash to the recorded value.
    let body_end = text
        .rfind("checksum ")
        .ok_or_else(|| DecodeError::Corrupt("missing checksum".into()))?;
    let recorded = text[body_end..]
        .trim_end()
        .strip_prefix("checksum ")
        .and_then(|h| u64::from_str_radix(h, 16).ok())
        .ok_or_else(|| DecodeError::Corrupt("unparsable checksum".into()))?;
    let actual = fnv1a_64(&text.as_bytes()[..body_end]);
    if recorded != actual {
        return Err(DecodeError::Corrupt(format!(
            "checksum mismatch: recorded {recorded:016x}, actual {actual:016x}"
        )));
    }

    let mut lines = text[..body_end].lines();
    match lines.next() {
        Some(h) if h == header() => {}
        // A well-formed but differently-versioned entry is stale, not
        // corrupt; quietly recompute.
        Some(h) if h.starts_with("snoc-cell/") => return Err(DecodeError::Stale),
        _ => return Err(DecodeError::Corrupt("unrecognized header".into())),
    }
    let keyline = fields(&mut lines, "key")?;
    match keyline.as_slice() {
        [k] if Fingerprint::from_hex(k) == Some(key) => {}
        [k] if Fingerprint::from_hex(k).is_some() => {
            return Err(DecodeError::Corrupt(
                "entry filed under the wrong key".into(),
            ))
        }
        _ => return Err(DecodeError::Corrupt("bad key line".into())),
    }

    let cycles = u64s(fields(&mut lines, "cycles")?, "cycles")?;
    let [cycles] = cycles.as_slice() else {
        return Err(DecodeError::Corrupt("cycles wants one value".into()));
    };
    let committed = u64s(fields(&mut lines, "committed")?, "committed")?;
    let lat = f64s(fields(&mut lines, "latencies")?, "latencies", 6)?;
    let counts = u64s(fields(&mut lines, "counts")?, "counts")?;
    let [bank_reads, bank_writes, mem_fetches, held_packets, held_cycles] = counts.as_slice()
    else {
        return Err(DecodeError::Corrupt("counts wants five values".into()));
    };
    let edges = u64s(fields(&mut lines, "hist_edges")?, "hist_edges")?;
    let hist_counts = u64s(fields(&mut lines, "hist_counts")?, "hist_counts")?;
    let post_write_gaps = Histogram::from_parts(edges, hist_counts)
        .map_err(|e| DecodeError::Corrupt(format!("bad histogram: {e}")))?;
    let shape = f64s(fields(&mut lines, "shape")?, "shape", 5)?;
    let energy = f64s(fields(&mut lines, "energy")?, "energy", 4)?;
    if lines.next().is_some() {
        return Err(DecodeError::Corrupt("trailing lines".into()));
    }

    Ok(RunMetrics {
        cycles: *cycles,
        per_core_committed: committed,
        net_request_latency: lat[0],
        net_response_latency: lat[1],
        bank_queue_wait: lat[2],
        bank_service: lat[3],
        uncore_rtt: lat[4],
        uncore_rtt_p95: lat[5],
        bank_reads: *bank_reads,
        bank_writes: *bank_writes,
        mem_fetches: *mem_fetches,
        post_write_gaps,
        delayable_fraction: shape[0],
        child_queue_mean: shape[1],
        queue_mean_by_hops: [shape[2], shape[3], shape[4]],
        held_packets: *held_packets,
        held_cycles: *held_cycles,
        energy: EnergyBreakdown {
            noc_dynamic_nj: energy[0],
            noc_leakage_nj: energy[1],
            cache_dynamic_nj: energy[2],
            cache_leakage_nj: energy[3],
        },
        audit: None,
        telemetry: None,
        faults: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::AssertUnwindSafe;

    fn sample_metrics() -> RunMetrics {
        let mut hist = Histogram::fig3();
        for v in [5, 20, 40, 70, 100, 140, 200, 20] {
            hist.record(v);
        }
        RunMetrics {
            cycles: 3_000,
            per_core_committed: (0..64).map(|i| 1_000 + i).collect(),
            net_request_latency: 20.25,
            net_response_latency: 25.125,
            bank_queue_wait: 10.0625,
            bank_service: 5.5,
            uncore_rtt: 61.75,
            uncore_rtt_p95: 123.5,
            bank_reads: 10_000,
            bank_writes: 5_000,
            mem_fetches: 321,
            post_write_gaps: hist,
            delayable_fraction: 0.17,
            child_queue_mean: 3.25,
            queue_mean_by_hops: [1.5, 3.0, 4.5],
            held_packets: 55,
            held_cycles: 550,
            energy: EnergyBreakdown {
                noc_dynamic_nj: 1.0e3,
                noc_leakage_nj: 2.0e3,
                cache_dynamic_nj: 3.0e3,
                cache_leakage_nj: 4.0e3,
            },
            audit: None,
            telemetry: None,
            faults: None,
        }
    }

    fn key() -> Fingerprint {
        let mut h = StableHasher::new();
        h.write_str("test-key");
        h.finish()
    }

    #[test]
    fn codec_round_trips_exactly() {
        let m = sample_metrics();
        let doc = encode(&m, key());
        let back = match decode(&doc, key()) {
            Ok(b) => b,
            Err(DecodeError::Corrupt(why)) => panic!("corrupt: {why}"),
            Err(DecodeError::Stale) => panic!("stale"),
        };
        // RunMetrics is not PartialEq; Debug covers every field and
        // renders floats exactly enough for the values used here.
        assert_eq!(format!("{m:?}"), format!("{back:?}"));
    }

    #[test]
    fn decode_rejects_tampering_without_panicking() {
        let doc = encode(&sample_metrics(), key());
        // Flip one digit in the middle of the document.
        let tampered = doc.replacen("latencies", "latenciez", 1);
        assert!(matches!(
            decode(&tampered, key()),
            Err(DecodeError::Corrupt(_))
        ));
        // Truncate.
        assert!(matches!(
            decode(&doc[..doc.len() / 2], key()),
            Err(DecodeError::Corrupt(_))
        ));
        // Garbage.
        assert!(matches!(
            decode("hello\nworld\n", key()),
            Err(DecodeError::Corrupt(_))
        ));
        // Wrong key (checksum fine, content filed wrongly).
        let mut h = StableHasher::new();
        h.write_str("other-key");
        assert!(matches!(
            decode(&doc, h.finish()),
            Err(DecodeError::Corrupt(_))
        ));
    }

    #[test]
    fn version_mismatch_is_stale_not_corrupt() {
        let doc = encode(&sample_metrics(), key());
        // Rewrite the header to an older crate version and re-seal the
        // checksum so only the version differs.
        let body_end = doc.rfind("checksum ").unwrap();
        let old_body = doc[..body_end].replacen(&header(), "snoc-cell/1 snoc-bench/1 0.0.0", 1);
        let resealed = format!(
            "{old_body}checksum {:016x}\n",
            fnv1a_64(old_body.as_bytes())
        );
        assert!(matches!(decode(&resealed, key()), Err(DecodeError::Stale)));
    }

    #[test]
    fn disk_store_round_trips_and_survives_corruption() {
        let dir = std::env::temp_dir().join(format!("snoc-cellcache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = CellCache::new(Some(dir.clone()));
        let k = key();
        assert!(cache.lookup(k).metrics.is_none(), "empty cache misses");
        cache.store(k, &sample_metrics()).expect("store succeeds");

        // A fresh cache (cold in-process map) reads it back from disk.
        let cold = CellCache::new(Some(dir.clone()));
        let hit = cold.lookup(k);
        assert_eq!(hit.source, Some(CacheSource::Disk));
        assert_eq!(
            format!("{:?}", hit.metrics.unwrap()),
            format!("{:?}", sample_metrics())
        );
        // And now serves it from memory.
        assert_eq!(cold.lookup(k).source, Some(CacheSource::Memory));

        // Corrupt the entry on disk: a fresh cache must miss with a
        // note, not panic or trust it.
        let path = cache.entry_path(k).unwrap();
        std::fs::write(&path, "snoc-cell/1 snoc-bench/1 gibberish\n").unwrap();
        let fresh = CellCache::new(Some(dir.clone()));
        let probe = fresh.lookup(k);
        assert!(probe.metrics.is_none());
        assert!(probe.note.unwrap().contains("corrupt"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tmp_store_paths_are_writer_unique() {
        // Regression: the tmp suffix was pid-only, so two same-process
        // workers storing the same key shared one tmp path and could
        // rename an interleaved write into place. Every call — from
        // any thread — must now yield a fresh path.
        let entry = PathBuf::from("/cache/0123.cell");
        let a = tmp_store_path(&entry);
        let b = tmp_store_path(&entry);
        assert_ne!(a, b, "two writers were handed the same tmp path");
        let from_thread = std::thread::spawn({
            let entry = entry.clone();
            move || tmp_store_path(&entry)
        })
        .join()
        .unwrap();
        assert_ne!(a, from_thread);
        assert_ne!(b, from_thread);
        for p in [&a, &b, &from_thread] {
            assert!(p.to_string_lossy().contains("tmp."), "scratch-named: {p:?}");
        }
    }

    #[test]
    fn concurrent_stores_of_one_key_never_corrupt_the_entry() {
        let dir =
            std::env::temp_dir().join(format!("snoc-cellcache-concurrent-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = CellCache::new(Some(dir.clone()));
        let k = key();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..24 {
                        cache.store(k, &sample_metrics()).expect("store succeeds");
                    }
                });
            }
        });
        // A cold cache must read back a pristine entry — no corruption
        // note, no silent recompute.
        let cold = CellCache::new(Some(dir.clone()));
        let probe = cold.lookup(k);
        assert!(probe.note.is_none(), "corrupt entry: {:?}", probe.note);
        assert_eq!(probe.source, Some(CacheSource::Disk));
        assert_eq!(
            format!("{:?}", probe.metrics.unwrap()),
            format!("{:?}", sample_metrics())
        );
        // Every tmp file was renamed away.
        let stray: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x != "cell"))
            .collect();
        assert!(stray.is_empty(), "leftover tmp files: {stray:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_poisoned_map_mutex_degrades_gracefully() {
        // Regression: a panic while the map mutex was held poisoned it,
        // and every later lookup/store panicked on `lock().unwrap()` —
        // one isolated failure cascaded into killing the runner. The
        // cache must shrug the poison off and keep serving.
        let cache = CellCache::new(None);
        let k = key();
        cache.store(k, &sample_metrics()).unwrap();
        let _ = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let _guard = cache.mem.lock().unwrap();
            panic!("worker dies holding the cache lock");
        }));
        assert!(cache.mem.is_poisoned(), "the panic must have poisoned");
        let hit = cache.lookup(k);
        assert_eq!(hit.source, Some(CacheSource::Memory));
        cache
            .store(k, &sample_metrics())
            .expect("store still works");
    }

    #[test]
    fn a_poisoned_shared_cache_does_not_kill_a_sweep() {
        // The same defect observed from above: pre-fix, a sweep whose
        // shared cache had been poisoned panicked on the very first
        // cell probe (outside the per-cell catch_unwind), taking the
        // whole runner — and in the server, every later job — with it.
        use crate::scenario::Scenario;
        use crate::sweep::{RunSpec, SweepRunner};
        let cache = std::sync::Arc::new(CellCache::new(None));
        let _ = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let _guard = cache.mem.lock().unwrap();
            panic!("cell worker dies holding the cache lock");
        }));
        assert!(cache.mem.is_poisoned());
        let cfg = Scenario::Sram64Tsb
            .config()
            .rebuild()
            .cycles(100, 400)
            .build();
        let grid = vec![RunSpec::homogeneous(
            "a",
            cfg,
            snoc_workload::table3::by_name("tpcc").unwrap(),
        )];
        let results = SweepRunner::new()
            .shared_cache(std::sync::Arc::clone(&cache))
            .run_grid("poisoned", grid);
        assert!(results[0].outcome.is_ok(), "sweep survived the poison");
    }

    #[test]
    fn public_codec_wrappers_round_trip() {
        let m = sample_metrics();
        let doc = encode_metrics(&m, key());
        let back = decode_metrics(&doc, key()).expect("round trip");
        assert_eq!(format!("{m:?}"), format!("{back:?}"));
        assert!(decode_metrics("garbage", key()).is_err());
    }

    #[test]
    fn memory_only_cache_needs_no_disk() {
        let cache = CellCache::new(None);
        let k = key();
        assert!(cache.entry_path(k).is_none());
        cache
            .store(k, &sample_metrics())
            .expect("memory-only store");
        assert_eq!(cache.lookup(k).source, Some(CacheSource::Memory));
    }
}
