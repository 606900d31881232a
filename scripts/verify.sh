#!/usr/bin/env sh
# Full offline verification: release build, test suite, strict clippy
# across the whole workspace, formatting, rustdoc with warnings denied
# (a dangling intra-doc link, say to a deleted method, passes the
# compiler, clippy and every test), the differential/determinism
# suites under release optimization (the fast paths the benchmarks
# exercise) — repeated with the scalar replay kernel body forced over
# the same four suites as CI's scalar pass (disk_cache among them),
# proving TLABP_SIMD is a throughput knob only (the suites cover
# intra-batch replay splitting themselves, comparing one-worker with
# multi-worker pools) — plus a pass against a fresh disk-backed trace
# cache proving the disk tier invisible to results — the benchmark crate's own
# unit tests (so a library change that breaks the API it compiles
# against fails here) — a one-second smoke run of every repository
# benchmark workload with all of its checks (see benchmark/README.md),
# an end-to-end TLBE import of the built-in demo capture, a check of
# `experiments config` (an empty TLABP_SERVE_ADDR resolves to the
# default, and two garbage knobs fall back with exactly one warning
# each), a run of every example (trace_tools among them, with its TLBE
# round trip),
# a byte-compare of every
# committed paper output (all 22 CSVs, regenerated by `experiments all`
# plus `calibrate` on a fresh trace cache) against `results/`, and the
# sweep-service smoke test: a daemon is started with a persistent memo
# tier, a concurrent burst of clients streams the fig5 plan, every
# result set must be byte-identical to an in-process `experiments exec`
# of the same plan file, and after killing and restarting the daemon a
# further client must be answered from the persistent memo tier (proven
# by the client's "memoized" report — zero simulation work) and still
# byte-identically.
# Run from the repository root. Requires no network access (the service
# smoke test talks only to 127.0.0.1).
#
# Every scratch path lives under one temporary root, and TMPDIR points
# there too, so the files the tests and examples put in the system
# temporary directory land under it as well. One EXIT trap stops a daemon
# the script started and removes the root, whether the run passes or
# fails: a run leaves nothing behind in the temporary directory.
set -eux

VERIFY_TMP="$(mktemp -d)"
SERVE_PID=""
cleanup() {
  if [ -n "$SERVE_PID" ]; then
    kill "$SERVE_PID" 2>/dev/null || true
  fi
  rm -rf "$VERIFY_TMP"
}
trap cleanup EXIT
export TMPDIR="$VERIFY_TMP"

cargo build --release --workspace
cargo test -q --workspace
cargo clippy --workspace --all-targets -- -D warnings
cargo fmt --all --check
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
cargo test --release -q -p tlabp --test differential --test sweep_determinism --test disk_cache --test streaming
TLABP_SIMD=scalar cargo test --release -q -p tlabp --test differential --test sweep_determinism --test disk_cache --test streaming
# The same suites against a fresh disk-backed trace cache: every store
# the suites open through `TraceStore::from_env` writes v3 artifacts and
# later stores hydrate them, and every result must still agree bit for
# bit with memory-only generation.
TLABP_TRACE_DIR="$VERIFY_TMP/differential-traces" cargo test --release -q -p tlabp --test differential --test disk_cache --test streaming
# The benchmark crate (outside the workspace) compiles against the
# library API; its unit tests run here so an API break fails verify.
cargo test --release -q --manifest-path benchmark/Cargo.toml
# Benchmark smoke: every workload for one second, each with its oracle
# checks (paper-warm's reference-path and golden-digest checks among
# them); the run fails when any workload reports a failed check.
cargo run --release -q --manifest-path benchmark/Cargo.toml -- run --seed 1 --seconds 1 --out "$VERIFY_TMP/bench-run"
# External trace ingestion: the built-in demo capture must import,
# persist as a fingerprint-named v3 artifact and pass its replay smoke
# check end-to-end.
TLABP_TRACE_DIR="$VERIFY_TMP/import-traces" cargo run -q -p tlabp-experiments --release -- import --out "$VERIFY_TMP/import"
# Configuration: every TLABP_* knob is read once, by one rule. An empty
# address means the default, and each garbage value warns once and
# falls back to its default, however many readers ask.
CONFIG_LOG="$VERIFY_TMP/config.log"
TLABP_SERVE_ADDR= TLABP_SERVE_MEMO_BYTES=64MiB TLABP_SIMD=avx512 \
  cargo run -q -p tlabp-experiments --release -- config > "$CONFIG_LOG" 2>&1
grep -qx 'TLABP_SERVE_ADDR=127.0.0.1:7391' "$CONFIG_LOG"
grep -qx 'TLABP_SERVE_MEMO_BYTES=67108864' "$CONFIG_LOG"
grep -qx 'TLABP_SIMD=auto' "$CONFIG_LOG"
test "$(grep -c '^warning: ignoring TLABP_' "$CONFIG_LOG")" -eq 2
# Examples compile under `cargo test` but only run here, each to
# completion: trace_tools asserts that a workload trace survives TLBE
# export and import.
for example in quickstart compare_schemes custom_workload cost_explorer trace_tools; do
  cargo run --release -q --example "$example"
done

# Golden paper outputs: `experiments all` plus `calibrate`, on a fresh
# trace cache, must regenerate every committed CSV under results/
# byte-identically.
GOLDEN_DIR="$VERIFY_TMP/golden"
GOLDEN_TRACES="$VERIFY_TMP/golden-traces"
TLABP_TRACE_DIR="$GOLDEN_TRACES" cargo run -q -p tlabp-experiments --release -- all --out "$GOLDEN_DIR"
TLABP_TRACE_DIR="$GOLDEN_TRACES" cargo run -q -p tlabp-experiments --release -- calibrate --out "$GOLDEN_DIR"
GOLDEN_COUNT=0
for csv in results/*.csv; do
  name="$(basename "$csv")"
  cmp "$csv" "$GOLDEN_DIR/$name"
  GOLDEN_COUNT=$((GOLDEN_COUNT + 1))
done
test "$GOLDEN_COUNT" -eq 22

# Sweep-service smoke test. Serialize the fig5 plan, run it in-process
# for the reference results, then stream it through a live daemon
# (event core, persistent memo tier) from a concurrent burst of
# clients plus one warm (memoized) client, and require every response
# byte-identical to the in-process run.
SMOKE_DIR="$VERIFY_TMP/smoke"
export TLABP_SERVE_ADDR=127.0.0.1:17391
export TLABP_SERVE_MEMO_DIR="$SMOKE_DIR/memo"
cargo run -q -p tlabp-experiments --release -- plan fig5 --out "$SMOKE_DIR"
cargo run -q -p tlabp-experiments --release -- exec "$SMOKE_DIR/fig5.plan.json" --out "$SMOKE_DIR/exec"
cargo run -q -p tlabp-experiments --release -- serve &
SERVE_PID=$!
BURST_PIDS=""
for i in 1 2 3 4 5 6; do
  cargo run -q -p tlabp-experiments --release -- client "$SMOKE_DIR/fig5.plan.json" --out "$SMOKE_DIR/client-$i" &
  BURST_PIDS="$BURST_PIDS $!"
done
for pid in $BURST_PIDS; do
  wait "$pid"
done
for i in 1 2 3 4 5 6; do
  cmp "$SMOKE_DIR/exec/fig5.results.json" "$SMOKE_DIR/client-$i/fig5.results.json"
done
# Another client hits the daemon's in-memory memo cache; the replayed
# bytes must still match.
cargo run -q -p tlabp-experiments --release -- client "$SMOKE_DIR/fig5.plan.json" --out "$SMOKE_DIR/client-memo"
cmp "$SMOKE_DIR/exec/fig5.results.json" "$SMOKE_DIR/client-memo/fig5.results.json"
kill "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=""

# Restart check: a fresh daemon process must answer the already-seen
# plan from the persistent memo tier — the client must report
# "memoized" (zero simulation work) and the bytes must still match.
cargo run -q -p tlabp-experiments --release -- serve &
SERVE_PID=$!
cargo run -q -p tlabp-experiments --release -- client "$SMOKE_DIR/fig5.plan.json" --out "$SMOKE_DIR/client-restart" | tee "$SMOKE_DIR/client-restart.log"
grep -q "memoized" "$SMOKE_DIR/client-restart.log"
cmp "$SMOKE_DIR/exec/fig5.results.json" "$SMOKE_DIR/client-restart/fig5.results.json"
kill "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=""
