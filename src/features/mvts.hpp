// MVTS-style statistical feature extractor (Ahmadzadeh et al., SoftwareX
// 2020, as used by the paper): 48 features per metric — descriptive
// statistics over the whole series, absolute differences of the descriptive
// statistics between the first and second halves, and long-run trend
// features (longest monotonic runs etc.).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "features/feature_plan.hpp"

namespace alba {

class MvtsExtractor final : public FeatureExtractor {
 public:
  MvtsExtractor();

  std::string name() const override { return "mvts"; }
  void extract(std::span<const double> series, const FeaturePlan& plan,
               std::span<double> out) const override;
};

}  // namespace alba
