#!/usr/bin/env bash
# Local CI gate: formatting, lints, the full test suite, a bench-smoke run
# that validates every emitted BENCH_*.json artifact, and the perf gate
# against the committed baselines.
#
# Run from anywhere; operates on the workspace this script lives in. Safe
# on a clean checkout: no pre-warmed target/ is assumed, CARGO_HOME
# overrides are honored, and no stage touches the network (all
# dependencies are vendored path crates).
set -euo pipefail

cd "$(dirname "$0")/.."

# The workspace has no registry dependencies; make any accidental
# network fetch an error instead of a hang.
export CARGO_NET_OFFLINE=true

echo "== toolchain =="
rustc --version
cargo --version
cargo fmt --version
cargo clippy --version
echo "CARGO_HOME=${CARGO_HOME:-<default>}"

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo test =="
cargo test -q --workspace

echo "== build with instrumentation compiled out =="
# The pf-trace kill switch: without default features every probe must
# compile away, so the workspace has to keep building.
cargo build -q --workspace --no-default-features

echo "== bench smoke =="
# Run every fig/table binary on tiny grids; each emits a schema-versioned
# BENCH_<name>.json artifact which bench_check then validates.
SMOKE_DIR=target/bench-smoke
rm -rf "$SMOKE_DIR"
mkdir -p "$SMOKE_DIR"
cargo build -q --release -p pf-bench
BIN=target/release

echo "== pf-lint static verification =="
# The full pf-analyze v2 suite as a CI gate: P1+P2 kernel sets (halo fit,
# hazards, value lints, contract-seeded interval dataflow), their
# GPU-rescheduled forms, and the symbolic comm-protocol proof of the
# overlapped schedule over every divided-pattern plus the concrete
# 2/4/8-rank decompositions. Non-zero exit on any error-severity finding;
# LINT_report.json lands next to the bench artifacts for upload.
PF_BENCH_OUT_DIR="$SMOKE_DIR" "$BIN/pf-lint" > "$SMOKE_DIR/pf-lint.log" \
  || { echo "pf-lint found error-severity diagnostics:" >&2; \
       cat "$SMOKE_DIR/pf-lint.log" >&2; exit 1; }
grep -q '^pf-lint: OK' "$SMOKE_DIR/pf-lint.log" \
  || { echo "pf-lint did not complete" >&2; exit 1; }
test -s "$SMOKE_DIR/LINT_report.json" \
  || { echo "pf-lint emitted no LINT_report.json artifact" >&2; exit 1; }
# Tuned artifacts (table1) consult/fill the tuning cache; keep it hermetic
# to this run instead of whatever the host's temp dir has accumulated.
export PF_TUNE_CACHE_DIR="$SMOKE_DIR/tune-cache"
for b in table1 table2 fig2_left fig2_middle fig2_right fig3 gpu_approx ablation weak_scaling; do
  echo "-- $b"
  PF_BENCH_SMOKE=1 PF_BENCH_OUT_DIR="$SMOKE_DIR" "$BIN/$b" > "$SMOKE_DIR/$b.log"
done
"$BIN/bench_check" validate "$SMOKE_DIR"/BENCH_*.json
grep -q '"tuning"' "$SMOKE_DIR/BENCH_table1.json" \
  || { echo "table1 artifact carries no extra.tuning block" >&2; exit 1; }

echo "== bench smoke (vectorized engine) =="
# Rerun one binary with the strip-mined vectorized engine pinned, into its
# own directory, and validate: proves the ExecMode::Vectorized path emits
# schema-valid artifacts (mode + extra.analysis fields) end to end.
VEC_DIR="$SMOKE_DIR/vectorized"
mkdir -p "$VEC_DIR"
PF_BENCH_SMOKE=1 PF_BENCH_EXEC=vectorized PF_BENCH_OUT_DIR="$VEC_DIR" \
  "$BIN/table1" > "$VEC_DIR/table1.log"
"$BIN/bench_check" validate "$VEC_DIR"/BENCH_table1.json
grep -q '"mode": "vectorized"' "$VEC_DIR/BENCH_table1.json" \
  || { echo "vectorized smoke artifact carries no vectorized records" >&2; exit 1; }

echo "== native engine smoke =="
# Compile a small model's kernels to machine code (tape → Rust source →
# rustc cdylib → dlopen), run a few steps, and require bitwise identity
# with the serial interpreter plus a warm artifact-cache second pass. The
# example prints `native-smoke: SKIPPED` (and exits 0) on hosts whose
# toolchain cannot produce loadable cdylibs; that skip must stay loud.
NAT_DIR="$SMOKE_DIR/native"
mkdir -p "$NAT_DIR"
cargo build -q --release --example native_smoke
PF_NATIVE_CACHE_DIR="$NAT_DIR/cache" target/release/examples/native_smoke \
  | tee "$NAT_DIR/native_smoke.log"
if grep -q '^native-smoke: SKIPPED' "$NAT_DIR/native_smoke.log"; then
  echo "WARNING: native engine smoke SKIPPED — rustc cannot produce loadable cdylibs here;" >&2
  echo "WARNING: the ExecMode::Native path was NOT exercised by this CI run" >&2
else
  # The native engine also has to emit schema-valid bench artifacts with
  # native-mode records end to end.
  PF_BENCH_SMOKE=1 PF_BENCH_EXEC=native PF_BENCH_OUT_DIR="$NAT_DIR" \
    PF_NATIVE_CACHE_DIR="$NAT_DIR/cache" "$BIN/table1" > "$NAT_DIR/table1.log"
  "$BIN/bench_check" validate "$NAT_DIR"/BENCH_table1.json
  grep -q '"mode": "native"' "$NAT_DIR/BENCH_table1.json" \
    || { echo "native smoke artifact carries no native records" >&2; exit 1; }
fi

echo "== no-toolchain fallback smoke =="
# Native is the default engine whenever rustc can produce loadable
# cdylibs. With the compiler replaced by `false` the availability probe
# fails, so a default run must fall back to the interpreters and still
# complete. Engines are bitwise identical, so where the toolchain works
# the fallback run must print exactly what the default run prints.
NOTC_DIR="$SMOKE_DIR/no-toolchain"
mkdir -p "$NOTC_DIR"
cargo build -q --release --example quickstart
PF_NATIVE_RUSTC=false PF_NATIVE_CACHE_DIR="$NOTC_DIR/cache" \
  target/release/examples/quickstart > "$NOTC_DIR/quickstart.log"
grep -q '^final solid fraction' "$NOTC_DIR/quickstart.log" \
  || { echo "quickstart did not complete without a toolchain" >&2; exit 1; }
PF_NATIVE_CACHE_DIR="$NAT_DIR/cache" target/release/examples/quickstart \
  > "$NOTC_DIR/quickstart_default.log"
cmp "$NOTC_DIR/quickstart.log" "$NOTC_DIR/quickstart_default.log" \
  || { echo "the no-toolchain fallback changed the quickstart output" >&2; exit 1; }

echo "== warm tuning pass =="
# The tuner's cold-miss → measure → persist → warm-hit round trip is a
# tier-1 test (tests/tuning_cache.rs). Here, a second table1 pass runs
# against the cache the bench smoke above already filled.
TUNE_DIR="$SMOKE_DIR/tune"
rm -rf "$TUNE_DIR"
mkdir -p "$TUNE_DIR"
# The warm-hit path must still emit a schema-valid extra.tuning block
# (bench_check validates the regret arithmetic field by field).
PF_BENCH_SMOKE=1 PF_BENCH_OUT_DIR="$TUNE_DIR" "$BIN/table1" > "$TUNE_DIR/table1.log"
"$BIN/bench_check" validate "$TUNE_DIR"/BENCH_table1.json

echo "== overlapped 2-rank smoke =="
# The table2 smoke above already drove the overlapped distributed schedule
# end to end (2 thread-backed ranks, blocking vs overlapped, the §4.3
# communication-hiding path); pin that it really happened and that the
# measurement landed in the artifact.
grep -q '"measured_overlap"' "$SMOKE_DIR/BENCH_table2.json" \
  || { echo "table2 artifact carries no measured_overlap record" >&2; exit 1; }
grep -q 'overlapped ' "$SMOKE_DIR/table2.log" \
  || { echo "table2 smoke never ran the overlapped schedule" >&2; exit 1; }

echo "== weak scaling smoke =="
# The weak_scaling binary above drove the real distributed runtime at
# 2→16 simulated ranks (full mode sweeps to 128) with batched halos and
# the overlapped schedule; pin that the artifact carries the scaling
# series the perf gate's efficiency check consumes.
grep -q '"weak_scaling"' "$SMOKE_DIR/BENCH_weak_scaling.json" \
  || { echo "weak_scaling artifact carries no extra.weak_scaling block" >&2; exit 1; }
grep -q 'ranks' "$SMOKE_DIR/weak_scaling.log" \
  || { echo "weak_scaling smoke printed no scaling table" >&2; exit 1; }

echo "== perf gate =="
# Reuses the smoke artifacts just produced (skip the second run). Smoke
# measurements on shared CI hosts carry sustained scheduling noise even
# with best-of-N sampling, so the gate runs widened here unless the
# caller pins a tolerance; dedicated perf hosts should invoke
# scripts/perf_gate.sh directly for the strict 15% default.
PF_PERF_GATE_TOL="${PF_PERF_GATE_TOL:-0.40}" \
  PF_PERF_GATE_REUSE="$SMOKE_DIR" scripts/perf_gate.sh

echo "CI OK"
