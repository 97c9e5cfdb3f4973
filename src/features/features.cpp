#include "features/features.hpp"

#include <span>

#include "common/statistics.hpp"
#include "sparse/properties.hpp"

namespace sparta {

namespace {

struct Summary {
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
};

/// min, max and mean of one scan array in a single in-order pass, bitwise
/// equal to stats::min/max/mean (all 0 for an empty range).
Summary summarize(std::span<const double> xs) {
  Summary s;
  if (xs.empty()) return s;
  s.min = s.max = xs.front();
  double sum = 0.0;
  for (const double x : xs) {
    if (x < s.min) s.min = x;
    if (s.max < x) s.max = x;
    sum += x;
  }
  s.mean = sum / static_cast<double>(xs.size());
  return s;
}

}  // namespace

std::string_view feature_name(Feature f) {
  switch (f) {
    case Feature::kSize: return "size";
    case Feature::kDensity: return "density";
    case Feature::kNnzMin: return "nnz_min";
    case Feature::kNnzMax: return "nnz_max";
    case Feature::kNnzAvg: return "nnz_avg";
    case Feature::kNnzSd: return "nnz_sd";
    case Feature::kBwMin: return "bw_min";
    case Feature::kBwMax: return "bw_max";
    case Feature::kBwAvg: return "bw_avg";
    case Feature::kBwSd: return "bw_sd";
    case Feature::kScatterAvg: return "scatter_avg";
    case Feature::kScatterSd: return "scatter_sd";
    case Feature::kClusteringAvg: return "clustering_avg";
    case Feature::kMissesAvg: return "misses_avg";
    case Feature::kCount: break;
  }
  return "?";
}

FeatureVector extract_features(const CsrMatrix& m, const FeatureExtractionConfig& cfg) {
  FeatureVector fv;
  const RowScan scan = scan_rows(m, cfg.values_per_line);

  fv[Feature::kSize] = m.spmv_working_set_bytes() <= cfg.llc_bytes ? 1.0 : 0.0;
  const double n = static_cast<double>(m.nrows());
  fv[Feature::kDensity] = n > 0.0 ? static_cast<double>(m.nnz()) / (n * n) : 0.0;

  // Eight in-order passes over the scan arrays: one per array for min, max
  // and mean, plus a deviation pass reusing that mean for nnz, bw, scatter.
  const Summary nnz = summarize(scan.nnz);
  fv[Feature::kNnzMin] = nnz.min;
  fv[Feature::kNnzMax] = nnz.max;
  fv[Feature::kNnzAvg] = nnz.mean;
  fv[Feature::kNnzSd] = stats::stddev(scan.nnz, nnz.mean);

  const Summary bw = summarize(scan.bandwidth);
  fv[Feature::kBwMin] = bw.min;
  fv[Feature::kBwMax] = bw.max;
  fv[Feature::kBwAvg] = bw.mean;
  fv[Feature::kBwSd] = stats::stddev(scan.bandwidth, bw.mean);

  fv[Feature::kScatterAvg] = stats::mean(scan.scatter);
  fv[Feature::kScatterSd] = stats::stddev(scan.scatter, fv[Feature::kScatterAvg]);
  fv[Feature::kClusteringAvg] = stats::mean(scan.clustering);
  fv[Feature::kMissesAvg] = stats::mean(scan.misses);
  return fv;
}

std::vector<Feature> feature_subset_linear() {
  return {Feature::kNnzMin, Feature::kNnzMax,     Feature::kNnzSd,
          Feature::kBwAvg,  Feature::kScatterAvg, Feature::kScatterSd};
}

std::vector<Feature> feature_subset_full() {
  return {Feature::kSize,   Feature::kBwAvg,  Feature::kBwSd,      Feature::kNnzMin,
          Feature::kNnzMax, Feature::kNnzAvg, Feature::kNnzSd,     Feature::kMissesAvg,
          Feature::kScatterSd};
}

std::vector<double> project(const FeatureVector& fv, const std::vector<Feature>& subset) {
  std::vector<double> out;
  out.reserve(subset.size());
  for (Feature f : subset) out.push_back(fv[f]);
  return out;
}

}  // namespace sparta
