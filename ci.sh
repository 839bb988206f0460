#!/usr/bin/env bash
# CI gate: tier-1 build+test, formatting, workspace-wide lints, every
# test of every workspace crate in release (among them the audited
# all-experiment sweep, the determinism and FullStack-digest pins, the
# fault campaign, the serve, cache, conformance and snoc CLI suites and
# every unit test), an env-read guard (no library crate reads the
# environment), a strict-CLI check (a typo'd flag or SNOC_* variable
# must fail without touching any file), a sweep determinism smoke test
# (SNOC_THREADS must not change `snoc repro`'s stdout), a sweep-cache
# leg (a warm rerun must be byte-identical, cache-served, and at least
# 2x faster), a perf smoke gated against the tracked baseline,
# telemetry, faults and scaling smokes, a `snoc serve` smoke (daemon
# simulates a cell once, serves the repeat from cache, dedups an
# identical resubmission, and shuts down cleanly), a byte-identity leg
# (every legacy results/ file must regenerate exactly), and an optional
# coverage floor.
set -euo pipefail
cd "$(dirname "$0")"

snoc() {
    cargo run --release -q -p snoc-bench --bin snoc -- "$@"
}

echo "== tier 1: release build =="
cargo build --release

echo "== tier 1: tests =="
cargo test -q

echo "== formatting =="
cargo fmt --all -- --check

echo "== lints: clippy over the workspace, warnings are errors =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== workspace: every crate's tests in release =="
cargo test --release --workspace -q

echo "== env guard: no library crate reads or writes the environment =="
if grep -rEn 'std::env::(var|vars|set_var|remove_var|args)' \
    crates/{common,noc,mem,cpu,workload,energy,core}/src; then
    echo "error: only the snoc binary's edge may touch the environment"
    exit 1
fi
echo "ok: no env access below the snoc binary"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
export SNOC_PROGRESS=0 SNOC_RESULTS_DIR="$tmp/results"

echo "== strict CLI: a typo'd flag or variable must fail before any file is written =="
baseline_hash="$(sha256sum BENCH_hotpath.json)"
if snoc perf --asert-within 8 >/dev/null 2>&1; then
    echo "error: snoc perf accepted an unknown flag"
    exit 1
fi
echo "$baseline_hash" | sha256sum -c --quiet
if snoc serve --socket "$tmp/never.sock" --requets '{"op":"ping"}' >/dev/null 2>&1; then
    echo "error: snoc serve accepted an unknown flag"
    exit 1
fi
if [ -e "$tmp/never.sock" ]; then
    echo "error: snoc serve touched its socket before rejecting the flag"
    exit 1
fi
if SNOC_AUIDT=1 snoc repro fig3 --quick >/dev/null 2>&1; then
    echo "error: snoc accepted a misspelled SNOC_* variable"
    exit 1
fi
if [ -e "$tmp/results" ]; then
    echo "error: snoc wrote results before rejecting a variable"
    exit 1
fi
echo "ok: unknown flags and variables rejected, nothing written"

echo "== sweep smoke: SNOC_THREADS=1 vs 4 stdout must be identical =="
SNOC_THREADS=1 snoc repro fig3 --quick >"$tmp/t1.out" 2>/dev/null
SNOC_THREADS=4 snoc repro fig3 --quick >"$tmp/t4.out" 2>/dev/null
diff -u "$tmp/t1.out" "$tmp/t4.out"
test -s "$tmp/t1.out"
echo "ok: identical across thread counts"

echo "== sweep cache: warm rerun byte-identical, cache-served, and 2x faster =="
export SNOC_CACHE_DIR="$tmp/cellcache"
t0=$(date +%s%N)
SNOC_PROGRESS=1 snoc repro fig6 --quick >"$tmp/cold.out" 2>"$tmp/cold.err"
t_cold=$(( $(date +%s%N) - t0 ))
t0=$(date +%s%N)
SNOC_PROGRESS=1 snoc repro fig6 --quick >"$tmp/warm.out" 2>"$tmp/warm.err"
t_warm=$(( $(date +%s%N) - t0 ))
unset SNOC_CACHE_DIR
diff -u "$tmp/cold.out" "$tmp/warm.out"
test -s "$tmp/cold.out"
if ! grep -Eq '[1-9][0-9]* cached' "$tmp/warm.err"; then
    echo "error: warm rerun reported no cache hits"
    cat "$tmp/warm.err"
    exit 1
fi
if [ $((t_warm * 2)) -gt "$t_cold" ]; then
    echo "error: warm rerun (${t_warm} ns) not 2x faster than cold (${t_cold} ns)"
    exit 1
fi
echo "ok: warm rerun identical, served from cache, $((t_cold / t_warm))x faster"

echo "== perf gate: snoc perf within 8% of the tracked baseline =="
# Full measurement budget, not --smoke: best-vs-best over a ~6 s
# window is stable on a noisy single-core box, where a 120 ms smoke
# window flakes by 10-20% run to run.
SNOC_BENCH_BASELINE=BENCH_hotpath.json \
    snoc perf --out "$tmp/bench.json" --assert-within 8 >/dev/null
grep -q '"kernels/network_step"' "$tmp/bench.json"

echo "== telemetry smoke: snoc repro telemetry writes heatmaps and a trace =="
snoc repro telemetry --quick >/dev/null 2>&1
test -s "$tmp/results/telemetry/fig6_util_heatmap.csv"
test -s "$tmp/results/telemetry/fig6_hold_heatmap.csv"
test -s "$tmp/results/telemetry/fig6_latency_hist.csv"
test -s "$tmp/results/telemetry/fig6_trace.jsonl"

echo "== faults smoke: snoc repro faults writes the campaign table =="
snoc repro faults --quick >/dev/null 2>&1
test -s "$tmp/results/faults/fault_campaign.txt"
test -s "$tmp/results/faults/fault_campaign.csv"

echo "== scaling smoke: snoc repro scaling writes the study table =="
snoc repro scaling --quick >/dev/null 2>&1
test -s "$tmp/results/scaling/scaling_study.txt"
test -s "$tmp/results/scaling/scaling_study.csv"

echo "== serve smoke: one simulation, one cache hit, one dedup, clean shutdown =="
serve_sock="$tmp/snoc-serve.sock"
serve_cell='{"label":"ci","scenario":"MRAM-4TSB-WB","app":"sap","warmup":100,"measure":400}'
snoc serve --socket "$serve_sock" 2>"$tmp/serve.err" &
serve_pid=$!
for _ in $(seq 1 100); do
    [ -S "$serve_sock" ] && break
    sleep 0.1
done
snoc serve --socket "$serve_sock" --ping >/dev/null
first="$(snoc serve --socket "$serve_sock" \
    --request "{\"op\":\"submit\",\"wait\":true,\"cells\":[$serve_cell]}")"
echo "$first" | grep -q '"deduped":false'
echo "$first" | grep -q '"cached":false'
# The same cell under a new label is a *new* job (labels are part of
# job identity) but must be served from the shared cell cache.
serve_relabel="${serve_cell/\"ci\"/\"ci-relabel\"}"
second="$(snoc serve --socket "$serve_sock" \
    --request "{\"op\":\"submit\",\"wait\":true,\"cells\":[$serve_relabel]}")"
echo "$second" | grep -q '"deduped":false'
echo "$second" | grep -q '"cached":true'
echo "$second" | grep -q '"cache_hits":1'
# An identical resubmission is not even a new job.
third="$(snoc serve --socket "$serve_sock" \
    --request "{\"op\":\"submit\",\"wait\":true,\"cells\":[$serve_cell]}")"
echo "$third" | grep -q '"deduped":true'
snoc serve --socket "$serve_sock" --shutdown >/dev/null
wait "$serve_pid"
if [ -e "$serve_sock" ]; then
    echo "error: snoc serve left its socket file behind"
    exit 1
fi
echo "ok: serve smoke passed"

echo "== byte identity: legacy results regenerate exactly (full scale, cache off) =="
for exp in table2 table3 fig3 fig6 fig7 fig8 fig9 fig10 fig12 fig13 fig14 ablations; do
    snoc repro "$exp" >/dev/null 2>&1
    diff -u "results/$exp.txt" "$tmp/results/$exp.txt"
    diff -u "results/$exp.csv" "$tmp/results/$exp.csv"
done
echo "ok: all 24 legacy result files byte-identical"

echo "== coverage: line floor over snoc-noc incl. workspace (gated on tool presence) =="
if cargo llvm-cov --version >/dev/null 2>&1; then
    # 72: raised from 70 when the SoA workspace module landed with its
    # own unit + differential test coverage.
    cargo llvm-cov -q -p snoc-noc --fail-under-lines 72 --summary-only
else
    echo "skipped: cargo-llvm-cov is not installed" \
        "(cargo install cargo-llvm-cov to enable this leg)"
fi

echo "== ci passed =="
