#include "features/feature_plan.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace alba {

FeaturePlan FeatureExtractor::plan(
    std::span<const std::pair<std::size_t, std::size_t>> cells) const {
  FeaturePlan p;
  p.full_ = false;
  p.slots_.assign(names_.size(), FeaturePlan::kNoSlot);
  for (const auto& [feature, slot] : cells) {
    ALBA_CHECK(feature < names_.size())
        << "feature " << feature << " outside " << name() << "'s "
        << names_.size();
    ALBA_CHECK(slot < FeaturePlan::kNoSlot);
    ALBA_CHECK(p.slots_[feature] == FeaturePlan::kNoSlot)
        << "feature " << names_[feature] << " requested twice";
    p.slots_[feature] = static_cast<std::uint32_t>(slot);
    p.reads_ |= reads_[feature];
    p.out_size_ = std::max(p.out_size_, slot + 1);
  }
  return p;
}

void FeatureExtractor::add_feature(std::string name, std::uint32_t reads) {
  names_.push_back(std::move(name));
  reads_.push_back(reads);
}

void FeatureExtractor::check_out(const FeaturePlan& plan,
                                 std::span<const double> out) const {
  if (plan.full()) {
    ALBA_CHECK(out.size() == names_.size())
        << "full plan needs " << names_.size() << " slots, got "
        << out.size();
    return;
  }
  ALBA_CHECK(plan.slots_.size() == names_.size())
      << "plan compiled for " << plan.slots_.size() << " features, "
      << name() << " has " << names_.size();
  ALBA_CHECK(out.size() >= plan.out_size_)
      << "plan writes slot " << plan.out_size_ - 1 << ", out has "
      << out.size();
}

}  // namespace alba
