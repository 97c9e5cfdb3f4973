// Small statistics helpers used by feature extraction, the execution model
// and the benchmark harnesses. The paper summarizes performance rates with
// the harmonic mean and uses medians for the imbalance bound, so both are
// first-class citizens here.
#pragma once

#include <span>
#include <vector>

namespace sparta::stats {

/// Arithmetic mean; 0 for an empty range.
double mean(std::span<const double> xs);

/// Population standard deviation (the paper's features divide by N, not N-1).
double stddev(std::span<const double> xs);
/// The same around a `mean` already computed as mean(xs) computes it.
double stddev(std::span<const double> xs, double mean);

/// Median (average of the two middle elements for even sizes).
/// Does not modify the input.
double median(std::span<const double> xs);

/// Harmonic mean; 0 for an empty range. Elements must be positive.
double harmonic_mean(std::span<const double> xs);

/// p-th percentile (0 <= p <= 100) with linear interpolation.
double percentile(std::span<const double> xs, double p);

/// Geometric mean; 0 for an empty range. Elements must be positive.
double geometric_mean(std::span<const double> xs);

/// Minimum / maximum; 0 for an empty range.
double min(std::span<const double> xs);
double max(std::span<const double> xs);

}  // namespace sparta::stats
