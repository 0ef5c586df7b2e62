#include "serving/chaos.hpp"

#include <chrono>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace alba {

ServingChaos::ServingChaos(ChaosConfig config) : config_(config) {
  ALBA_CHECK(config_.slow_extract_rate >= 0.0 &&
             config_.slow_extract_rate <= 1.0)
      << "slow_extract_rate must be in [0, 1]";
  ALBA_CHECK(config_.extract_fail_rate >= 0.0 &&
             config_.extract_fail_rate <= 1.0)
      << "extract_fail_rate must be in [0, 1]";
  ALBA_CHECK(config_.slow_extract_ms >= 0.0)
      << "slow_extract_ms must be non-negative";
}

std::function<void(const Matrix&)> ServingChaos::hook() {
  return [this](const Matrix& window) { on_extraction(window); };
}

void ServingChaos::on_extraction(const Matrix&) {
  const std::uint64_t event = events_.fetch_add(1);
  if (!config_.enabled()) return;
  // One independent stream per event index: the decision for event k does
  // not depend on which thread reached it or what other events did.
  Rng rng(Rng(config_.seed).split(event + 1).next());
  if (rng.bernoulli(config_.slow_extract_rate)) {
    slowdowns_.fetch_add(1);
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(config_.slow_extract_ms));
  }
  if (rng.bernoulli(config_.extract_fail_rate)) {
    failures_.fetch_add(1);
    throw Error("chaos: injected extraction failure (event " +
                std::to_string(event) + ")");
  }
}

std::uint64_t ServingChaos::extractions_seen() const noexcept {
  return events_.load();
}
std::uint64_t ServingChaos::slowdowns_injected() const noexcept {
  return slowdowns_.load();
}
std::uint64_t ServingChaos::failures_injected() const noexcept {
  return failures_.load();
}

void write_poisoned_bundle(const std::string& src_path,
                           const std::string& dst_path, BundlePoison mode,
                           std::uint64_t seed) {
  std::ifstream in(src_path, std::ios::binary);
  ALBA_CHECK(in.good()) << "cannot open '" << src_path << "' for reading";
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string bytes = buf.str();
  ALBA_CHECK(bytes.size() > 32)
      << "'" << src_path << "' is too small to be a bundle ("
      << bytes.size() << " bytes)";

  Rng rng(seed);
  switch (mode) {
    case BundlePoison::Truncate: {
      // Keep between the 16-byte header and ~90% of the file, so every
      // later section boundary gets exercised across seeds.
      const std::size_t keep =
          16 + rng.uniform_index((bytes.size() * 9) / 10 - 16);
      bytes.resize(keep);
      break;
    }
    case BundlePoison::BitFlip: {
      // Flip one bit somewhere past the magic/version header.
      const std::size_t at = 16 + rng.uniform_index(bytes.size() - 16);
      bytes[at] = static_cast<char>(
          static_cast<unsigned char>(bytes[at]) ^
          static_cast<unsigned char>(1u << rng.uniform_index(8)));
      break;
    }
    case BundlePoison::BadMagic:
      bytes[0] = static_cast<char>(
          static_cast<unsigned char>(bytes[0]) ^ 0xFFu);
      break;
  }

  std::ofstream out(dst_path, std::ios::binary | std::ios::trunc);
  ALBA_CHECK(out.good()) << "cannot open '" << dst_path << "' for writing";
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ALBA_CHECK(out.good()) << "write to '" << dst_path << "' failed";
}

}  // namespace alba
