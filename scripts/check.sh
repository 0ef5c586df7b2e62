#!/usr/bin/env bash
# Repo check, stage by stage:
#  1. tier 1: the build, with -DALBA_WERROR=ON so a new warning fails
#     it, and the ctest suite;
#  2. tier 1 shuffled: the same suite again under `ctest -j
#     --schedule-random --repeat until-fail:3` (test processes run in
#     parallel in a shuffled order, so a test that leans on another's files
#     or timing fails here);
#  3. production_triage example: exits 1 unless a corrupted push rolls
#     back, the fixed push reaches generation 2 and a post-drain request is
#     shed as draining;
#  4. replay_feed example: streams a synthesized feed over loopback TCP
#     into an IngestServer; exits 1 unless the triggered windows are
#     bit-identical to an in-process replay of the same rows;
#  5. serving smoke: train a tiny model, export a bundle, serve 100 windows
#     one diagnose call at a time, assert bit-identical agreement with the
#     offline pipeline;
#  6. serving chaos smoke: burst a ServiceHost under injected slow/failing
#     extractions and poisoned bundle pushes; only typed shedding,
#     deadline-honest Ok results, and rollback bit-identity are acceptable;
#  7. serving latency smoke: single-window sweep over batch x model (DT, RF,
#     GBM exact and hist); the small-batch threshold-SoA kernel must be >=3x
#     the forced block path at batch=1 on the exact RF and the hist GBM,
#     with bit-identical probabilities on every model;
#     percentiles land in BENCH_serving_latency.json;
#  8. ML smoke: GBM's histogram and exact split finders agree on macro-F1
#     within the parity gate; compiled flat-SoA inference matches the
#     object-traversal reference on every argmax, stays within 1e-9 on
#     probabilities, and clears the 3x speedup gate at the 2000x2000 pool
#     scale (timings plus the small/block batch-size sweep land in
#     BENCH_ml_predict.json);
#  9. wire smoke: stream a feed over the framed socket transport, assert
#     row conservation, bit-identical windows vs the in-process replay, and
#     diagnosis parity through a trained bundle (BENCH_wire.json);
# 10. wire chaos smoke: seeded corrupt/duplicate/drop/slow-loris/
#     backpressure/server-restart scenarios, each asserting every sent row
#     ends exactly once in {ingested, typed-rejected};
# 11. AddressSanitizer + UndefinedBehaviorSanitizer build of the full suite
#     (the fault-injection paths shuffle NaNs and truncated buffers around,
#     exactly where silent out-of-bounds reads would hide);
# 12. ThreadSanitizer build of the concurrency-sensitive tests (thread
#     pool, tree training incl. the shared BinnedMatrix/ExactRanks,
#     active-learning loop, the feature extractors on a pool, the
#     diagnosis service, its overload-safe host, streaming and wire) to
#     catch races in the parallel training/extraction/scoring/serving
#     paths.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== tier 1: build (warnings are errors) + ctest =="
cmake -B build -S . -DALBA_WERROR=ON > /dev/null
cmake --build build -j"$(nproc)" > /dev/null
(cd build && ctest --output-on-failure -j"$(nproc)")

echo
echo "== tier 1 shuffled: parallel random order, each test up to 3 times =="
(cd build && ctest --output-on-failure -j"$(nproc)" --schedule-random \
  --repeat until-fail:3)

echo
echo "== example smoke: production triage (rollback, generation 2, typed drain) =="
./build/examples/production_triage > /dev/null

echo
echo "== example smoke: replay_feed (wire windows match an in-process replay) =="
./build/examples/replay_feed > /dev/null

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
echo "== ml smoke: GBM hist/exact train parity + compiled predict gates =="
(cd build/bench && ./bench_micro_ml --smoke)

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
  test_service_host test_streaming test_wire > /dev/null
(cd build-asan && ctest --output-on-failure -j"$(nproc)")

echo
echo "== tsan: thread pool + tree training + active learning + extraction + serving + streaming =="
cmake -B build-tsan -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread" > /dev/null
cmake --build build-tsan -j"$(nproc)" \
  --target test_thread_pool test_binning test_ml_trees test_compiled_tree \
  test_ml_tools test_active test_active_ext test_features test_serving \
  test_service_host test_streaming test_wire > /dev/null
for t in test_thread_pool test_binning test_ml_trees test_compiled_tree \
         test_ml_tools test_active test_active_ext test_features \
         test_serving test_service_host test_streaming test_wire; do
  echo "-- $t (tsan)"
  ./build-tsan/tests/"$t"
done

echo
echo "all checks passed"
