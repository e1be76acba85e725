#!/usr/bin/env bash
# Single pre-PR gate for this repository (the "CI configuration"):
#
#   1. configure + build with HUNTER_WERROR=ON (-Werror -Wshadow -Wconversion
#      on top of the always-on -Wall -Wextra)
#   2. hunterlint over src/ tests/ bench/ examples/ against the checked-in
#      debt baseline (empty, and ratcheted non-increasing)
#   3. the full tier-1 ctest suite (includes the `lint` and `perf` labels)
#   4. the hot-path micro-benchmarks in smoke mode: one rep per benchmark,
#      gating on the golden equivalence checks (optimized paths must match
#      their seed-faithful reference implementations — the *_simd gates at
#      bit-identity tolerance 0.0), not on timings
#   5. the whole suite again with HUNTER_FORCE_SCALAR=1, pinning the
#      vector-kernel dispatch (linalg/simd/) to the scalar fallbacks; the
#      `force_scalar`-labeled duplicates already ran in stage 3, so this
#      stage covers the remaining tests (-LE force_scalar)
#   6. a tracecat smoke: emit two same-seed run journals, require them
#      byte-identical, and render a breakdown + a cross-seed diff
#   7. a lint-report smoke: two `hunterlint --format=json` runs over the
#      tree must be byte-identical (lintdiff exit 0), and lintdiff must
#      report a real difference (exit 1) between the tree and the
#      violation fixtures
#   8. a sanitizer smoke: `ctest -L concurrency` under TSan
#   9. a sanitizer smoke: `ctest -L concurrency` under ASan+LSan with
#      ASAN_OPTIONS=detect_leaks=1 so leaks fail at exit
#  10. the whole suite under UBSan (-fno-sanitize-recover=all, so any
#      undefined behaviour fails its test); the force_scalar duplicates
#      are skipped (-LE force_scalar) since they run the same code
#  11. the end-to-end benchmark's own gtests (`e2e_bench/run.py --test`):
#      builds e2e_bench against this tree in .bench_build/ and checks that
#      its timing decorator leaves run journals identical to plain
#      RunTuning
#
# Run from anywhere: paths are resolved relative to the repo root. Build
# trees land in build-check/, build-check-tsan/, build-check-asan/,
# build-check-ubsan/ and .bench_build/ (all gitignored).
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

echo "== [1/11] configure + build (HUNTER_WERROR=ON) =="
cmake -B build-check -S . -DHUNTER_WERROR=ON
cmake --build build-check -j "$JOBS"

echo "== [2/11] hunterlint (baseline ratchet) =="
./build-check/tools/hunterlint/hunterlint --root . \
    --baseline tools/hunterlint/baseline.json src tests bench examples

echo "== [3/11] tier-1 tests =="
ctest --test-dir build-check --output-on-failure -j "$JOBS"

echo "== [4/11] bench equivalence smoke =="
( cd build-check && ./bench/bench_micro_hotpaths --mode=smoke \
    --out bench_hotpaths_smoke.json )
# The engine fast-path, SIMD bit-identity and moved-reference gates must
# actually have run: a refactor that silently dropped one of the
# seed-equivalence checks would otherwise pass this stage on timings alone.
# The references under tests/ (per_sample_ref.h, jacobi_ref.h,
# triangular_ref.h, cart_position_ref.h, seed_engine_ref.h) only run through
# these gates and the gtests.
for gate in zipf_stream_vs_seed bufferpool_replay_vs_seed \
    engine_cold_vs_seed engine_cold_rng_stream gp_fit_vs_seed \
    gp_ei_batch_vs_seed gemm_simd_vs_scalar gp_kernel_simd_vs_scalar \
    mlp_forward_simd_vs_scalar mlp_params_after_step \
    ddpg_loss_batched_vs_seed ddpg_policy_batched_vs_seed \
    pca_ql_vs_jacobi_eigenvalues rf_rows_vs_positions \
    cart_split_scan_simd_vs_scalar gp_forward_subst_simd_vs_scalar \
    cholesky_simd_vs_scalar; do
  grep -q "\"$gate\"" build-check/bench_hotpaths_smoke.json || {
    echo "bench smoke: equivalence gate '$gate' missing from report" >&2
    exit 1
  }
done

echo "== [5/11] forced-scalar tier-1 tests (HUNTER_FORCE_SCALAR=1) =="
# Stage 3 already ran every test's force_scalar-labeled duplicate; this run
# pins the dispatch for the remaining tests (lint, perf, examples, and the
# unlabeled originals) so the whole suite is proven green at the scalar tier.
HUNTER_FORCE_SCALAR=1 ctest --test-dir build-check -LE force_scalar \
    --output-on-failure -j "$JOBS"

echo "== [6/11] tracecat smoke =="
SMOKE_DIR="build-check/tracecat-smoke"
mkdir -p "$SMOKE_DIR"
./build-check/examples/trace_journal "$SMOKE_DIR/seed42_a.jsonl" 42
./build-check/examples/trace_journal "$SMOKE_DIR/seed42_b.jsonl" 42
./build-check/examples/trace_journal "$SMOKE_DIR/seed43.jsonl" 43
cmp "$SMOKE_DIR/seed42_a.jsonl" "$SMOKE_DIR/seed42_b.jsonl" || {
  echo "tracecat smoke: same-seed journals differ" >&2
  exit 1
}
./build-check/tools/tracecat/tracecat breakdown "$SMOKE_DIR/seed42_a.jsonl"
./build-check/tools/tracecat/tracecat diff \
  "$SMOKE_DIR/seed42_a.jsonl" "$SMOKE_DIR/seed43.jsonl"

echo "== [7/11] lint-report determinism (lintdiff) =="
LINT_DIR="build-check/lint-smoke"
mkdir -p "$LINT_DIR"
./build-check/tools/hunterlint/hunterlint --root . --format=json \
    src tests bench examples > "$LINT_DIR/tree_a.json"
./build-check/tools/hunterlint/hunterlint --root . --format=json \
    src tests bench examples > "$LINT_DIR/tree_b.json"
./build-check/tools/lintdiff/lintdiff "$LINT_DIR/tree_a.json" \
    "$LINT_DIR/tree_b.json"
# The fixture report must differ from the clean tree: a non-empty diff is
# lintdiff exit 1, so the gate FAILS if it claims the reports are identical.
./build-check/tools/hunterlint/hunterlint \
    --root tools/hunterlint/testdata --format=json violations \
    > "$LINT_DIR/fixtures.json" || true
if ./build-check/tools/lintdiff/lintdiff "$LINT_DIR/tree_a.json" \
    "$LINT_DIR/fixtures.json" > /dev/null; then
  echo "lintdiff smoke: failed to distinguish tree from fixtures" >&2
  exit 1
fi

echo "== [8/11] TSan concurrency smoke =="
cmake -B build-check-tsan -S . -DHUNTER_SANITIZE=thread
cmake --build build-check-tsan -j "$JOBS"
ctest --test-dir build-check-tsan -L concurrency --output-on-failure -j "$JOBS"

echo "== [9/11] ASan+LSan concurrency smoke =="
cmake -B build-check-asan -S . -DHUNTER_SANITIZE=address
cmake --build build-check-asan -j "$JOBS"
ASAN_OPTIONS=detect_leaks=1 \
  ctest --test-dir build-check-asan -L concurrency --output-on-failure \
      -j "$JOBS"

echo "== [10/11] UBSan tier-1 tests =="
cmake -B build-check-ubsan -S . -DHUNTER_SANITIZE=undefined
cmake --build build-check-ubsan -j "$JOBS"
ctest --test-dir build-check-ubsan -LE force_scalar --output-on-failure \
    -j "$JOBS"

echo "== [11/11] e2e_bench tests =="
python3 e2e_bench/run.py --test

echo "check.sh: all gates passed"
