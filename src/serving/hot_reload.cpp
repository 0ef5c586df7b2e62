#include "serving/hot_reload.hpp"

#include <cmath>

#include "common/error.hpp"
#include "serving/model_bundle.hpp"

namespace alba {

std::string ReloadReport::summary() const {
  if (ok) {
    return "reload ok: generation " + std::to_string(generation) + ", " +
           std::to_string(probes_run) + " probe(s) validated";
  }
  return "reload failed (" + error + ")" +
         (rolled_back ? ", rolled back to the previous bundle" : "");
}

std::shared_ptr<DiagnosisService> build_validated_service(
    ModelBundle bundle, const ServingConfig& config,
    std::span<const Matrix> probes, ReloadReport& report) {
  report.ok = false;
  report.probes_run = 0;
  try {
    auto service =
        std::make_shared<DiagnosisService>(std::move(bundle), config);
    const std::size_t classes = service->bundle().label_names.size();
    for (const Matrix& probe : probes) {
      const Diagnosis d = service->diagnose(probe);
      ALBA_CHECK(d.probs.size() == classes)
          << "probe produced " << d.probs.size() << " class probabilities, "
          << "bundle advertises " << classes;
      double sum = 0.0;
      for (const double p : d.probs) {
        ALBA_CHECK(std::isfinite(p) && p >= 0.0)
            << "probe produced a non-finite or negative probability";
        sum += p;
      }
      ALBA_CHECK(std::abs(sum - 1.0) < 1e-6)
          << "probe probabilities sum to " << sum;
      ++report.probes_run;
    }
    // Probe traffic must not pollute the production counters.
    service->reset_stats();
    report.ok = true;
    return service;
  } catch (const std::exception& e) {
    report.error = e.what();
    return nullptr;
  }
}

std::shared_ptr<DiagnosisService> load_validated_service(
    const std::string& path, const ServingConfig& config,
    std::span<const Matrix> probes, ReloadReport& report) {
  report.ok = false;
  try {
    ModelBundle bundle = load_model_bundle_file(path);
    return build_validated_service(std::move(bundle), config, probes,
                                   report);
  } catch (const std::exception& e) {
    report.error = e.what();
    return nullptr;
  }
}

}  // namespace alba
