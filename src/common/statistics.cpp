#include "common/statistics.hpp"

#include <algorithm>
#include <cmath>

namespace sparta::stats {

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double acc = 0.0;
  for (double x : xs) acc += x;
  return acc / static_cast<double>(xs.size());
}

double stddev(std::span<const double> xs) { return stddev(xs, mean(xs)); }

double stddev(std::span<const double> xs, double mu) {
  if (xs.empty()) return 0.0;
  double acc = 0.0;
  for (double x : xs) acc += (x - mu) * (x - mu);
  return std::sqrt(acc / static_cast<double>(xs.size()));
}

double median(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  std::vector<double> tmp(xs.begin(), xs.end());
  const std::size_t mid = tmp.size() / 2;
  std::nth_element(tmp.begin(), tmp.begin() + static_cast<std::ptrdiff_t>(mid), tmp.end());
  const double hi = tmp[mid];
  if (tmp.size() % 2 == 1) return hi;
  const double lo = *std::max_element(tmp.begin(), tmp.begin() + static_cast<std::ptrdiff_t>(mid));
  return 0.5 * (lo + hi);
}

double harmonic_mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double acc = 0.0;
  for (double x : xs) acc += 1.0 / x;
  return static_cast<double>(xs.size()) / acc;
}

double percentile(std::span<const double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::vector<double> tmp(xs.begin(), xs.end());
  std::sort(tmp.begin(), tmp.end());
  if (p <= 0.0) return tmp.front();
  if (p >= 100.0) return tmp.back();
  const double pos = p / 100.0 * static_cast<double>(tmp.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= tmp.size()) return tmp.back();
  return tmp[lo] * (1.0 - frac) + tmp[lo + 1] * frac;
}

double geometric_mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double acc = 0.0;
  for (double x : xs) acc += std::log(x);
  return std::exp(acc / static_cast<double>(xs.size()));
}

double min(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  return *std::min_element(xs.begin(), xs.end());
}

double max(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  return *std::max_element(xs.begin(), xs.end());
}

}  // namespace sparta::stats
