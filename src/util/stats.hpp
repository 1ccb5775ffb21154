// Streaming and batch statistics used across trace analysis and report
// generation: online mean/variance/min/max (Welford) and percentiles
// over collected samples.
#pragma once

#include <cstddef>
#include <limits>
#include <span>

namespace peerscope::util {

/// Welford online accumulator: numerically stable single-pass mean and
/// variance plus min/max. Merge-able, so per-shard accumulators can be
/// reduced associatively in parallel analysis.
class OnlineStats {
 public:
  void add(double x);

  /// Merges another accumulator (Chan et al. parallel update).
  void merge(const OnlineStats& other);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Percentile with linear interpolation between closest ranks
/// (the "linear" / type-7 estimator). `q` in [0, 1]. Sorts the given
/// buffer in place.
[[nodiscard]] double percentile_inplace(std::span<double> samples, double q);

/// Ratio helper: percentage a/(a+b), 0 when both are zero. Used all over
/// the preference framework (Eqs. 7-8 of the paper).
[[nodiscard]] double percentage(double part, double complement);

}  // namespace peerscope::util
