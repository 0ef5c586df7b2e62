// e2ebench — the repository's end-to-end benchmark driver.
//
//   e2ebench --workload <stream-ingest|stream-diagnose|al-eclipse>
//            --seed <n> --seconds <s> --trace <0|1>
//            --fixture-dir <dir> [--trace-out <file>]
//   e2ebench --make-fixture <online workload> --out <file>
//
// Prints human-readable progress, then as its last stdout line one JSON
// object: {"correct", "attempted", "failed", "metrics"}. Untraced runs
// report the end-to-end metrics, traced runs the per-layer metrics of the
// layers the workload runs. Normally started through run.py, which builds
// it, keeps the online fixtures, and checks the reported names and units
// against BENCHMARK.json. layers.json defines each metric.
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>

#include "alba.hpp"
#include "bench.hpp"

namespace {

std::string take(int& i, int argc, char** argv) {
  if (i + 1 >= argc) {
    throw std::invalid_argument(std::string("missing value for ") + argv[i]);
  }
  return argv[++i];
}

}  // namespace

int main(int argc, char** argv) {
  alba::set_log_level(alba::LogLevel::Warn);
  try {
    e2e::Args args;
    std::string fixture_workload;
    std::string fixture_out;
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (a == "--workload") {
        args.workload = take(i, argc, argv);
      } else if (a == "--seed") {
        args.seed = std::stoull(take(i, argc, argv));
      } else if (a == "--seconds") {
        args.seconds = std::stoi(take(i, argc, argv));
      } else if (a == "--trace") {
        args.trace = std::stoi(take(i, argc, argv)) != 0;
      } else if (a == "--fixture-dir") {
        args.fixture_dir = take(i, argc, argv);
      } else if (a == "--trace-out") {
        args.trace_out = take(i, argc, argv);
      } else if (a == "--make-fixture") {
        fixture_workload = take(i, argc, argv);
      } else if (a == "--out") {
        fixture_out = take(i, argc, argv);
      } else {
        throw std::invalid_argument("unknown argument: " + a);
      }
    }
    if (!fixture_workload.empty()) {
      if (fixture_out.empty()) throw std::invalid_argument("--out required");
      e2e::make_fixture(fixture_workload, fixture_out);
      return 0;
    }
    if (args.workload.empty()) {
      throw std::invalid_argument("--workload required");
    }
    if (args.seconds < 1) throw std::invalid_argument("--seconds must be >= 1");

    const e2e::Report report = e2e::is_online(args.workload)
                                   ? e2e::run_online(args)
                                   : e2e::run_offline(args);
    std::printf("%s\n", report.json().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    return 1;
  }
}
