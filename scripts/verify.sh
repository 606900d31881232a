#!/usr/bin/env sh
# Full offline verification: release build, test suite, strict clippy
# across the whole workspace, formatting, the differential/determinism
# suites under release optimization (the fast paths the benchmarks
# exercise) — repeated with each replay kernel body forced, proving
# TLABP_SIMD is a throughput knob only (the avx512 pass runs on any
# host: without AVX-512 the forced tier falls back to SWAR, so it
# degrades to a second SWAR pass rather than failing) — plus a
# forced-split pass proving TLABP_SPLIT is a scheduling knob only —
# plus a capped-window streaming pass proving TLABP_STREAM_BYTES is a
# memory knob only — and one-iteration smoke runs of the throughput
# harness (full, then the replay section alone under the portable SWAR
# body, then the scaling, service and stream sections alone), an
# end-to-end TLBE import of the built-in demo capture, a byte-compare
# of the context-switch paper artifacts (fig9, fig10 and the ablations,
# regenerated on a fresh trace cache) against `results/`, and the
# sweep-service smoke test: a daemon is started with a persistent memo
# tier, a concurrent burst of clients streams the fig5 plan, every
# result set must be byte-identical to an in-process `experiments exec`
# of the same plan file, and after killing and restarting the daemon a
# further client must be answered from the persistent memo tier
# (proven by the client's "memoized" report — zero simulation work) and
# still byte-identically.
# Run from the repository root. Requires no network access (the service
# smoke test talks only to 127.0.0.1).
set -eux

cargo build --release --workspace
cargo test -q --workspace
cargo clippy --workspace --all-targets -- -D warnings
cargo fmt --all --check
cargo test --release -q -p tlabp --test differential --test sweep_determinism --test disk_cache --test streaming
TLABP_SIMD=swar cargo test --release -q -p tlabp --test differential --test sweep_determinism --test streaming
TLABP_SIMD=scalar cargo test --release -q -p tlabp --test differential --test sweep_determinism --test streaming
TLABP_SIMD=avx512 cargo test --release -q -p tlabp --test differential --test sweep_determinism
TLABP_SPLIT=3 cargo test --release -q -p tlabp --test differential --test sweep_determinism
# The engine's streaming tier forced on with a small window: every
# replay batch that finds a persisted v3 stream must walk it chunked
# (and bit-identically), everything else falls back to hydration.
TLABP_STREAM_BYTES=4194304 TLABP_TRACE_DIR="$(mktemp -d)" cargo test --release -q -p tlabp --test differential --test disk_cache --test streaming
TLABP_BENCH_ITERS=1 cargo run -q -p tlabp-experiments --release -- bench --out "$(mktemp -d)"
TLABP_BENCH_ITERS=1 TLABP_SIMD=swar cargo run -q -p tlabp-experiments --release -- bench --section replay --out "$(mktemp -d)"
TLABP_BENCH_ITERS=1 cargo run -q -p tlabp-experiments --release -- bench --section scaling --out "$(mktemp -d)"
TLABP_BENCH_ITERS=1 cargo run -q -p tlabp-experiments --release -- bench --section service --out "$(mktemp -d)"
TLABP_BENCH_ITERS=1 cargo run -q -p tlabp-experiments --release -- bench --section stream --out "$(mktemp -d)"
# External trace ingestion: the built-in demo capture must import,
# persist as a fingerprint-named v3 artifact and pass its replay smoke
# check end-to-end.
TLABP_TRACE_DIR="$(mktemp -d)" cargo run -q -p tlabp-experiments --release -- import --out "$(mktemp -d)"

# Golden context-switch artifacts: fig9, fig10 and the ablations (whose
# flush-PHT half simulates context switches) must regenerate every CSV
# byte-identically to the committed copy under results/.
GOLDEN_DIR="$(mktemp -d)"
GOLDEN_TRACES="$(mktemp -d)"
for artifact in fig9 fig10 ablations; do
  TLABP_TRACE_DIR="$GOLDEN_TRACES" cargo run -q -p tlabp-experiments --release -- "$artifact" --out "$GOLDEN_DIR"
done
for csv in fig9.csv fig9_summary.csv fig10.csv ablation_flush_pht.csv ablation_speculative.csv; do
  cmp "results/$csv" "$GOLDEN_DIR/$csv"
done

# Sweep-service smoke test. Serialize the fig5 plan, run it in-process
# for the reference results, then stream it through a live daemon
# (event backend, persistent memo tier) from a concurrent burst of
# clients plus one warm (memoized) client, and require every response
# byte-identical to the in-process run.
SMOKE_DIR="$(mktemp -d)"
export TLABP_SERVE_ADDR=127.0.0.1:17391
export TLABP_SERVE_MEMO_DIR="$SMOKE_DIR/memo"
cargo run -q -p tlabp-experiments --release -- plan fig5 --out "$SMOKE_DIR"
cargo run -q -p tlabp-experiments --release -- exec "$SMOKE_DIR/fig5.plan.json" --out "$SMOKE_DIR/exec"
cargo run -q -p tlabp-experiments --release -- serve &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true' EXIT
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

# Restart check: a fresh daemon process must answer the already-seen
# plan from the persistent memo tier — the client must report
# "memoized" (zero simulation work) and the bytes must still match.
cargo run -q -p tlabp-experiments --release -- serve &
SERVE_PID=$!
cargo run -q -p tlabp-experiments --release -- client "$SMOKE_DIR/fig5.plan.json" --out "$SMOKE_DIR/client-restart" | tee "$SMOKE_DIR/client-restart.log"
grep -q "memoized" "$SMOKE_DIR/client-restart.log"
cmp "$SMOKE_DIR/exec/fig5.results.json" "$SMOKE_DIR/client-restart/fig5.results.json"
kill "$SERVE_PID"
trap - EXIT
