#!/usr/bin/env bash
# Repo check: the tier-1 build + test suite, the same suite again under
# `ctest -j --schedule-random --repeat until-fail:3` (test processes run
# in parallel in a shuffled order, so a test that leans on another's
# files or timing fails here), a serving smoke run (train a
# tiny model, export a bundle, serve 100 windows, assert bit-identical
# agreement with the offline pipeline), a serving chaos smoke (burst a
# ServiceHost under injected slow/failing extractions and poisoned bundle
# pushes; only typed shedding, deadline-honest Ok results, and rollback
# bit-identity are acceptable), a serving latency smoke (single-window
# sweep over batch x model x split algo; the small-batch threshold-SoA
# kernel must be >=3x the forced block path at batch=1 on RF+GBM with
# bit-identical probabilities; percentiles land in
# BENCH_serving_latency.json), an ML train smoke run (histogram vs exact
# split finders must agree on macro-F1 within the parity gate), an ML
# predict smoke run (compiled flat-SoA inference must match the
# object-traversal reference on every argmax, stay within 1e-9 on
# probabilities, and clear the 3x speedup gate at the 2000x2000 pool
# scale; timings plus the small/block batch-size sweep land in
# BENCH_ml_predict.json), an
# fleet smoke run (deterministic consistent-hash routing must beat
# round-robin on cache hit rate; timings land in BENCH_fleet.json), a
# fleet chaos smoke (kill-under-load conservation, poisoned-canary
# containment, guard-window rollback, promote, typed drain), a wire
# smoke (stream a feed over the framed socket transport, assert row
# conservation, bit-identical windows vs the in-process replay, and
# diagnosis parity through a trained bundle; results land in
# BENCH_wire.json), a wire
# chaos smoke (seeded corrupt/duplicate/drop/slow-loris/backpressure/
# server-restart scenarios, each asserting every sent row ends exactly
# once in {ingested, typed-rejected} with nothing silently lost), an
# AddressSanitizer + UndefinedBehaviorSanitizer build of the full suite
# (the fault-injection paths shuffle NaNs and truncated buffers around —
# exactly where silent out-of-bounds reads would hide), then a
# ThreadSanitizer build of the concurrency-sensitive tests (thread pool,
# tree training incl. the shared BinnedMatrix, active-learning loop, the
# diagnosis service, its overload-safe host, and the replicated fleet)
# to catch races in the parallel training/scoring/serving paths.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== tier 1: build + ctest =="
cmake -B build -S . > /dev/null
cmake --build build -j"$(nproc)" > /dev/null
(cd build && ctest --output-on-failure -j"$(nproc)")

echo
echo "== tier 1 shuffled: parallel random order, each test up to 3 times =="
(cd build && ctest --output-on-failure -j"$(nproc)" --schedule-random \
  --repeat until-fail:3)

echo
echo "== serving smoke: export bundle + serve 100 windows =="
./build/bench/bench_serving --smoke

echo
echo "== serving chaos smoke: typed shedding + rollback under faults =="
./build/bench/bench_serving --chaos-smoke

echo
echo "== serving latency smoke: small-batch kernel >=3x at batch=1 =="
(cd build/bench && ./bench_serving --latency-smoke)

echo
echo "== ml smoke: hist/exact train parity + compiled predict gates =="
(cd build/bench && ./bench_micro_ml --smoke)

echo
echo "== fleet smoke: routing determinism + hash vs round-robin hit rate =="
(cd build/bench && ./bench_fleet --smoke)

echo
echo "== fleet chaos smoke: kill/canary/rollback containment gates =="
(cd build/bench && ./bench_fleet --chaos-smoke)


echo
echo "== wire smoke: conservation + window/diagnosis parity over the socket =="
(cd build/bench && ./bench_wire --smoke)

echo
echo "== wire chaos smoke: row conservation under network faults =="
(cd build/bench && ./bench_wire --chaos-smoke)

echo
echo "== asan+ubsan: full test suite =="
cmake -B build-asan -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined" > /dev/null
cmake --build build-asan -j"$(nproc)" --target \
  test_common test_thread_pool test_linalg test_stats_descriptive \
  test_stats_spectral test_anomaly test_telemetry test_features \
  test_preprocess test_ml_metrics test_binning test_ml_trees \
  test_compiled_tree test_ml_linear test_ml_tools test_active \
  test_active_ext test_core test_properties test_faults test_serving \
  test_service_host test_fleet test_streaming test_wire > /dev/null
(cd build-asan && ctest --output-on-failure -j"$(nproc)")

echo
echo "== tsan: thread pool + tree training + active learning + serving + fleet + streaming =="
cmake -B build-tsan -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread" > /dev/null
cmake --build build-tsan -j"$(nproc)" \
  --target test_thread_pool test_binning test_ml_trees test_compiled_tree \
  test_ml_tools test_active test_active_ext test_serving \
  test_service_host test_fleet test_streaming test_wire > /dev/null
for t in test_thread_pool test_binning test_ml_trees test_compiled_tree \
         test_ml_tools test_active test_active_ext test_serving \
         test_service_host test_fleet test_streaming test_wire; do
  echo "-- $t (tsan)"
  ./build-tsan/tests/"$t"
done

echo
echo "all checks passed"
