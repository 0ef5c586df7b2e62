#include "serving/diagnosis_service.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <string_view>
#include <unordered_map>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "features/preprocessing.hpp"

namespace alba {

std::uint64_t hash_window(const Matrix& window) noexcept {
  // FNV-1a over the shape and the raw bit pattern of every cell (NaNs hash
  // by payload, which is what content-identity wants).
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](const void* p, std::size_t n) noexcept {
    const auto* bytes = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= bytes[i];
      h *= 1099511628211ULL;
    }
  };
  const std::uint64_t rows = window.rows();
  const std::uint64_t cols = window.cols();
  mix(&rows, sizeof(rows));
  mix(&cols, sizeof(cols));
  mix(window.data(), window.size() * sizeof(double));
  return h;
}

DiagnosisService::DiagnosisService(ModelBundle bundle, ServingConfig config)
    : bundle_(std::move(bundle)),
      config_(config),
      registry_(bundle_.features.system, bundle_.features.registry),
      extractor_(make_extractor(bundle_.features.extractor)) {
  ALBA_CHECK(bundle_.model && bundle_.model->fitted())
      << "DiagnosisService needs a fitted model";

  // Resolve every selected feature name against the raw feature space this
  // registry/extractor pair produces (column j*F+f is feature f of metric
  // j, as in extract_features), composing projection + scaling into a
  // per-input-column plan grouped by metric. A name is "metric|feature";
  // feature names hold no '|', so the last one splits it.
  const auto& extractor_features = extractor_->feature_names();
  std::unordered_map<std::string_view, std::size_t> metric_index;
  std::unordered_map<std::string_view, std::size_t> feature_index;
  metric_index.reserve(registry_.size());
  feature_index.reserve(extractor_features.size());
  for (std::size_t j = 0; j < registry_.size(); ++j) {
    metric_index.emplace(registry_.metric(j).name, j);
  }
  for (std::size_t k = 0; k < extractor_features.size(); ++k) {
    feature_index.emplace(extractor_features[k], k);
  }

  const std::size_t inputs = bundle_.selected.size();
  col_min_.resize(inputs);
  col_max_.resize(inputs);
  // Per needed metric, in first-use order: the (extractor feature index,
  // model input column) pairs its plan writes.
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> outputs;
  std::unordered_map<std::size_t, std::size_t> metric_slot;
  for (std::size_t c = 0; c < inputs; ++c) {
    const auto sel = static_cast<std::size_t>(bundle_.selected[c]);
    const std::string_view name = bundle_.feature_names[sel];
    const std::size_t bar = name.rfind('|');
    const auto metric_it = metric_index.find(name.substr(0, bar));
    const auto feature_it = feature_index.find(name.substr(bar + 1));
    ALBA_CHECK(bar != std::string_view::npos &&
               metric_it != metric_index.end() &&
               feature_it != feature_index.end())
        << "bundle feature '" << name
        << "' is not produced by its own registry/extractor config";
    const std::size_t metric = metric_it->second;
    const std::size_t feature = feature_it->second;
    col_min_[c] = bundle_.scaler_mins[sel];
    col_max_[c] = bundle_.scaler_maxs[sel];

    const auto [slot_it, inserted] =
        metric_slot.emplace(metric, plan_.size());
    if (inserted) {
      plan_.push_back(MetricPlan{metric, {}});
      outputs.emplace_back();
    }
    outputs[slot_it->second].emplace_back(feature, c);
  }
  // Throws when two columns name the same cell.
  for (std::size_t m = 0; m < plan_.size(); ++m) {
    plan_[m].features = extractor_->plan(outputs[m]);
  }
}

void DiagnosisService::extract_row(const Matrix& window,
                                   std::span<double> out) const {
  ALBA_DCHECK(out.size() == bundle_.selected.size());
  if (config_.extraction_hook) config_.extraction_hook(window);
  // Each metric's plan writes its selected cells straight into their model
  // input columns.
  for (const MetricPlan& mp : plan_) {
    const std::vector<double> clean = preprocess_metric_column(
        window, mp.metric, registry_, bundle_.features.preprocess);
    extractor_->extract(clean, mp.features, out);
  }
  for (std::size_t col = 0; col < out.size(); ++col) {
    // Same composition as the offline path: non-finite extraction output
    // becomes 0 (select_features_by_name), then the training-time Min-Max
    // map with clipping (MinMaxScaler::transform).
    double v = out[col];
    if (!std::isfinite(v)) v = 0.0;
    const double span = col_max_[col] - col_min_[col];
    v = span > 0.0 ? (v - col_min_[col]) / span : 0.0;
    out[col] = std::clamp(v, 0.0, 1.0);
  }
}

Diagnosis DiagnosisService::diagnose(const Matrix& window) {
  const auto start = std::chrono::steady_clock::now();
  // Per-thread scratch: reshape keeps capacity, so after the first window
  // on a thread neither matrix allocates again. The predictor sees a batch
  // of one, which predict_dispatch routes to the small-batch threshold
  // kernel.
  Timer phase;
  thread_local Matrix x;
  thread_local Matrix probs;
  x.reshape(1, bundle_.selected.size());
  extract_row(window, x.row(0));
  const double extract_s = phase.seconds();

  phase.reset();
  static constexpr std::size_t kRow0[1] = {0};
  bundle_.model->predict_proba_rows(x, std::span<const std::size_t>(kRow0, 1),
                                    probs);
  const double predict_s = phase.seconds();

  Diagnosis out;
  const auto row = probs.row(0);
  out.probs.assign(row.begin(), row.end());
  out.label = argmax_label(row);
  out.confidence = row[static_cast<std::size_t>(out.label)];
  record_window(start, std::chrono::steady_clock::now(), extract_s,
                predict_s);
  return out;
}

DiagnosisResult DiagnosisService::diagnose(const DiagnoseRequest& request) {
  ALBA_CHECK(request.window != nullptr) << "DiagnoseRequest needs a window";
  DiagnosisResult r;
  r.generation = 1;
  if (request.deadline.expired()) {
    r.status = RequestStatus::RejectedDeadline;
    return r;
  }
  const auto start = std::chrono::steady_clock::now();
  try {
    r.diagnosis = diagnose(*request.window);
    r.status = RequestStatus::Ok;
  } catch (const std::exception& e) {
    r.status = RequestStatus::Failed;
    r.error = e.what();
  }
  const auto end = std::chrono::steady_clock::now();
  r.service_ms = std::chrono::duration<double, std::milli>(end - start).count();
  r.total_ms = r.service_ms;
  if (r.status == RequestStatus::Ok && request.deadline.expired()) {
    // Ok always met its deadline — same contract as the hosted tiers.
    r.status = RequestStatus::RejectedDeadline;
    r.diagnosis = Diagnosis{};
  }
  return r;
}

std::string_view DiagnosisService::label_name(int label) const {
  ALBA_CHECK(label >= 0 &&
             static_cast<std::size_t>(label) < bundle_.label_names.size())
      << "label " << label << " outside the bundle's label space";
  return bundle_.label_names[static_cast<std::size_t>(label)];
}

void DiagnosisService::record_window(
    std::chrono::steady_clock::time_point start,
    std::chrono::steady_clock::time_point end, double extract_s,
    double predict_s) {
  const double total_s = std::chrono::duration<double>(end - start).count();
  std::lock_guard<std::mutex> lock(stats_mutex_);
  totals_.windows += 1;
  totals_.extract_seconds += extract_s;
  totals_.predict_seconds += predict_s;
  totals_.total_seconds += total_s;
  // Wall-clock span: first window's start to the latest end, so
  // concurrent workers don't double-count overlapping time the way the
  // summed total_seconds does.
  if (!span_started_ || start < span_first_) {
    span_first_ = start;
    span_started_ = true;
  }
  if (end > span_last_) span_last_ = end;
  totals_.wall_seconds =
      std::chrono::duration<double>(span_last_ - span_first_).count();
  latency_.push(Outcome{.total_ms = total_s * 1e3});
}

ServingStats DiagnosisService::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  ServingStats s = totals_;
  s.latency_p50_ms = latency_.percentile(&Outcome::total_ms, 0.50);
  s.latency_p99_ms = latency_.percentile(&Outcome::total_ms, 0.99);
  s.latency_p999_ms = latency_.percentile(&Outcome::total_ms, 0.999);
  s.latency_min_ms = latency_.percentile(&Outcome::total_ms, 0.0);
  return s;
}

void DiagnosisService::reset_stats() {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  totals_ = ServingStats{};
  latency_.clear();
  span_started_ = false;
}

}  // namespace alba
