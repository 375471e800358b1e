#pragma once
// Descriptive statistics: moments, quantiles, and boxplot summaries.
//
// These back the paper's Fig. 4 (error-distribution boxplots: median and
// 25%/75% quantiles) and the summary statistics quoted in §V.

#include <cstddef>
#include <span>
#include <vector>

namespace archline::stats {

/// Arithmetic mean. Returns 0 for an empty input.
[[nodiscard]] double mean(std::span<const double> xs) noexcept;

/// Unbiased (n-1) sample variance. Returns 0 for fewer than two values.
[[nodiscard]] double variance(std::span<const double> xs) noexcept;

/// Unbiased sample standard deviation.
[[nodiscard]] double stddev(std::span<const double> xs) noexcept;

/// Sample minimum / maximum. Input must be non-empty.
[[nodiscard]] double min(std::span<const double> xs);
[[nodiscard]] double max(std::span<const double> xs);

/// Quantile with linear interpolation (R type-7, the R/NumPy default).
/// p must lie in [0, 1]; input must be non-empty (need not be sorted).
[[nodiscard]] double quantile(std::span<const double> xs, double p);

/// Nearest-rank quantile index into a sorted sample of n >= 1 values:
/// the 0-based index ceil(q * n) - 1, clamped to [0, n - 1]. Latency
/// reports (p50 / p99 / p999) quote this observed value rather than an
/// interpolation.
[[nodiscard]] std::size_t nearest_rank_index(std::size_t n,
                                             double q) noexcept;

/// The nearest-rank q-quantile of an ascending `sorted` sample; 0 for an
/// empty one.
[[nodiscard]] double nearest_rank(std::span<const double> sorted,
                                  double q) noexcept;

/// Median (type-7 quantile at p = 0.5).
[[nodiscard]] double median(std::span<const double> xs);

/// Five-number summary plus mean, as used for boxplots.
struct FiveNumberSummary {
  double min = 0.0;
  double q25 = 0.0;
  double median = 0.0;
  double q75 = 0.0;
  double max = 0.0;
  double mean = 0.0;
  std::size_t count = 0;

  /// Inter-quartile range q75 - q25.
  [[nodiscard]] double iqr() const noexcept { return q75 - q25; }
};

/// Computes the five-number summary of a non-empty sample.
[[nodiscard]] FiveNumberSummary summarize(std::span<const double> xs);

/// Element-wise relative error (a - b) / b for paired samples.
/// Used for the paper's (model - measured) / measured error metric.
/// Throws std::invalid_argument on length mismatch or zero denominator.
[[nodiscard]] std::vector<double> relative_errors(
    std::span<const double> model, std::span<const double> measured);

/// Geometric mean of strictly positive values.
[[nodiscard]] double geometric_mean(std::span<const double> xs);

/// Root-mean-square of a sample. Returns 0 for an empty input.
[[nodiscard]] double rms(std::span<const double> xs) noexcept;

}  // namespace archline::stats
