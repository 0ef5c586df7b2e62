#include "features/extractor.hpp"

#include <cmath>
#include <unordered_map>

#include "common/error.hpp"
#include "common/thread_pool.hpp"

namespace alba {

FeatureMatrix FeatureMatrix::select_rows(
    std::span<const std::size_t> indices) const {
  FeatureMatrix out;
  out.x = x.select_rows(indices);
  out.names = names;
  out.labels.reserve(indices.size());
  for (const std::size_t i : indices) {
    ALBA_CHECK(i < labels.size());
    out.labels.push_back(labels[i]);
    out.app_ids.push_back(app_ids[i]);
    out.input_ids.push_back(input_ids[i]);
    out.run_ids.push_back(run_ids[i]);
    out.node_ids.push_back(node_ids[i]);
  }
  return out;
}

std::string_view extractor_name(ExtractorKind kind) noexcept {
  return kind == ExtractorKind::Mvts ? "mvts" : "tsfresh";
}

std::unique_ptr<FeatureExtractor> make_extractor(ExtractorKind kind) {
  if (kind == ExtractorKind::Mvts) return std::make_unique<MvtsExtractor>();
  return std::make_unique<TsfreshExtractor>();
}

namespace {

// The zero feature matrix both extraction paths fill: one row per sample
// with its provenance, and one column per (metric, feature) pair named
// "metric|feature", metric-major (column j*F+k is feature k of metric j).
FeatureMatrix empty_feature_matrix(const std::vector<Sample>& samples,
                                   const MetricRegistry& registry,
                                   const FeatureExtractor& extractor) {
  ALBA_CHECK(!samples.empty());
  const std::size_t m = registry.size();
  const std::size_t f = extractor.num_features();

  FeatureMatrix fm;
  fm.x = Matrix(samples.size(), m * f);
  fm.names.reserve(m * f);
  const auto& feature_names = extractor.feature_names();
  for (std::size_t j = 0; j < m; ++j) {
    for (std::size_t k = 0; k < f; ++k) {
      fm.names.push_back(registry.metric(j).name + "|" + feature_names[k]);
    }
  }
  for (const Sample& sample : samples) {
    fm.labels.push_back(anomaly_label(sample.label));
    fm.app_ids.push_back(sample.app_id);
    fm.input_ids.push_back(sample.input_id);
    fm.run_ids.push_back(sample.run_id);
    fm.node_ids.push_back(sample.node_index);
  }
  return fm;
}

}  // namespace

FeatureMatrix extract_features(const std::vector<Sample>& samples,
                               const MetricRegistry& registry,
                               const FeatureExtractor& extractor,
                               const PreprocessConfig& preprocess) {
  FeatureMatrix fm = empty_feature_matrix(samples, registry, extractor);
  const std::size_t m = registry.size();
  const std::size_t f = extractor.num_features();
  parallel_for(samples.size(), [&](std::size_t s) {
    const Matrix clean =
        preprocess_series(samples[s].series, registry, preprocess);
    auto row = fm.x.row(s);
    for (std::size_t j = 0; j < m; ++j) {
      const std::vector<double> col = clean.col(j);
      extractor.extract(col, FeaturePlan::all(), row.subspan(j * f, f));
    }
  });
  return fm;
}

FeatureMatrix extract_features_robust(const std::vector<Sample>& samples,
                                      const MetricRegistry& registry,
                                      const FeatureExtractor& extractor,
                                      const PreprocessConfig& preprocess,
                                      ExtractionQuality& quality) {
  quality = ExtractionQuality{};
  FeatureMatrix fm = empty_feature_matrix(samples, registry, extractor);
  const std::size_t m = registry.size();
  const std::size_t f = extractor.num_features();

  // Per-sample accounting, aggregated after the parallel loop.
  std::vector<SeriesQuality> series_quality(samples.size());
  std::vector<std::size_t> failures(samples.size(), 0);

  // Rows start zero, so an unusable sample (dropped below) and a
  // quarantined metric's block need no writes.
  parallel_for(samples.size(), [&](std::size_t s) {
    SeriesQuality& sq = series_quality[s];
    const Matrix clean =
        preprocess_series_robust(samples[s].series, registry, preprocess, sq);
    if (!sq.usable) return;
    auto row = fm.x.row(s);
    for (std::size_t j = 0; j < m; ++j) {
      if (!sq.metric_ok[j]) continue;
      auto block = row.subspan(j * f, f);
      const std::vector<double> col = clean.col(j);
      try {
        extractor.extract(col, FeaturePlan::all(), block);
      } catch (const Error&) {
        for (auto& v : block) v = 0.0;
        ++failures[s];
      }
    }
  });

  std::vector<std::size_t> keep;
  keep.reserve(samples.size());
  for (std::size_t s = 0; s < samples.size(); ++s) {
    const SeriesQuality& sq = series_quality[s];
    if (!sq.usable) {
      quality.dropped_samples.push_back(s);
      continue;
    }
    keep.push_back(s);
    quality.cells_interpolated += sq.cells_interpolated;
    quality.metrics_quarantined += sq.metrics_quarantined;
    quality.feature_failures += failures[s];
  }
  quality.rows_dropped = quality.dropped_samples.size();
  ALBA_CHECK(!keep.empty())
      << "all " << samples.size() << " samples were unusable after repair";
  if (quality.rows_dropped > 0) fm = fm.select_rows(keep);
  return fm;
}

std::size_t drop_unusable_columns(FeatureMatrix& fm) {
  const std::size_t n = fm.x.rows();
  const std::size_t c = fm.x.cols();
  std::vector<std::size_t> keep;
  keep.reserve(c);
  for (std::size_t j = 0; j < c; ++j) {
    bool usable = true;
    const double first = fm.x(0, j);
    bool constant = true;
    for (std::size_t i = 0; i < n; ++i) {
      const double v = fm.x(i, j);
      if (!std::isfinite(v)) {
        usable = false;
        break;
      }
      if (v != first) constant = false;
    }
    if (usable && !constant) keep.push_back(j);
  }

  const std::size_t dropped = c - keep.size();
  if (dropped == 0) return 0;
  fm.x = fm.x.select_cols(keep);
  std::vector<std::string> names;
  names.reserve(keep.size());
  for (const std::size_t j : keep) names.push_back(std::move(fm.names[j]));
  fm.names = std::move(names);
  return dropped;
}

Matrix select_features_by_name(const FeatureMatrix& fm,
                               const std::vector<std::string>& names) {
  std::unordered_map<std::string_view, std::size_t> index;
  index.reserve(fm.names.size());
  for (std::size_t j = 0; j < fm.names.size(); ++j) index[fm.names[j]] = j;

  std::vector<std::size_t> cols;
  cols.reserve(names.size());
  for (const auto& name : names) {
    const auto it = index.find(name);
    ALBA_CHECK(it != index.end()) << "feature '" << name << "' not present";
    cols.push_back(it->second);
  }
  Matrix out = fm.x.select_cols(cols);
  for (std::size_t i = 0; i < out.rows(); ++i) {
    for (auto& v : out.row(i)) {
      if (!std::isfinite(v)) v = 0.0;
    }
  }
  return out;
}

}  // namespace alba
