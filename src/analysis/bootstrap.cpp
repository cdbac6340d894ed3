#include "analysis/bootstrap.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "core/parallel.hpp"

namespace wheels::analysis {

namespace {

/// A series prepared for repeated median resampling: sorted once, with each
/// original index's position in that order. A resample is then a histogram
/// over positions, and its order statistics a prefix walk of the histogram.
class RankedSample {
 public:
  explicit RankedSample(std::span<const double> samples)
      : sorted_(samples.size()), rank_(samples.size()) {
    if (samples.empty()) {
      throw std::invalid_argument{"bootstrap: empty sample set"};
    }
    if (std::any_of(samples.begin(), samples.end(),
                    [](double x) { return std::isnan(x); })) {
      throw std::invalid_argument{"bootstrap: NaN in sample set"};
    }
    std::vector<std::uint32_t> order(samples.size());
    std::iota(order.begin(), order.end(), 0u);
    // Ascending, with -0.0 before +0.0: the one pair of distinct doubles
    // that compare equal gets a fixed order, so every order statistic has
    // one defined bit pattern.
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                const double x = samples[a];
                const double y = samples[b];
                return x < y ||
                       (x == y && std::signbit(x) && !std::signbit(y));
              });
    for (std::uint32_t k = 0; k < order.size(); ++k) {
      sorted_[k] = samples[order[k]];
      rank_[order[k]] = k;
    }
  }

  /// The median of the series itself, by median_of's expression.
  double median() const {
    const std::size_t half = sorted_.size() / 2;
    if (sorted_.size() % 2 == 1) return sorted_[half];
    return (sorted_[half] + sorted_[half - 1]) / 2.0;
  }

  /// The median of one bootstrap resample: n draws of
  /// r.uniform_int(0, n - 1) pick original indices, the same draws
  /// bootstrap_ci makes, and each bumps its index's rank count.
  double resampled_median(Rng r) const {
    const std::size_t n = sorted_.size();
    const int hi = static_cast<int>(n) - 1;
    // Owned by this call: concurrent resamples never share a histogram.
    std::vector<std::uint32_t> count(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
      ++count[rank_[static_cast<std::size_t>(r.uniform_int(0, hi))]];
    }
    // Walk to the slot holding resample element #target (0-based, sorted).
    std::size_t k = 0;
    std::size_t below = 0;  // resample elements in slots before k
    const auto at = [&](std::size_t target) {
      while (below + count[k] <= target) below += count[k++];
      return sorted_[k];
    };
    // median_of's expression: the (n/2)-th order statistic m, averaged
    // with the (n/2 - 1)-th when n is even.
    const std::size_t half = n / 2;
    if (n % 2 == 1) return at(half);
    const double lower = at(half - 1);
    const double m = at(half);
    return (m + lower) / 2.0;
  }

 private:
  std::vector<double> sorted_;
  std::vector<std::uint32_t> rank_;
};

}  // namespace

ConfidenceInterval percentile_interval(
    double point, double level, int iterations, int threads,
    const std::function<double(std::size_t)>& draw) {
  if (iterations < 1) {
    throw std::invalid_argument{"bootstrap: iterations must be >= 1"};
  }
  if (level <= 0.0 || level >= 1.0) {
    throw std::invalid_argument{"bootstrap: level must be in (0,1)"};
  }
  std::vector<double> stats(static_cast<std::size_t>(iterations));
  core::parallel_for(threads, stats.size(),
                     [&](std::size_t it) { stats[it] = draw(it); });
  std::sort(stats.begin(), stats.end());
  const double alpha = (1.0 - level) / 2.0;
  const auto idx = [&](double q) {
    return stats[static_cast<std::size_t>(
        std::clamp(q * static_cast<double>(stats.size() - 1), 0.0,
                   static_cast<double>(stats.size() - 1)))];
  };
  ConfidenceInterval ci;
  ci.point = point;
  ci.lo = idx(alpha);
  ci.hi = idx(1.0 - alpha);
  return ci;
}

ConfidenceInterval bootstrap_ci(
    std::span<const double> samples,
    const std::function<double(std::span<const double>)>& statistic, Rng& rng,
    double level, int iterations, int threads) {
  if (samples.empty()) {
    throw std::invalid_argument{"bootstrap_ci: empty sample set"};
  }
  // One child stream per iteration: stats[it] depends only on (base, it),
  // never on which thread computed it or in what order, so the CI is
  // identical for every thread count.
  const Rng base{rng.next_u64()};
  const auto n = samples.size();
  return percentile_interval(
      statistic(samples), level, iterations, threads, [&](std::size_t it) {
        Rng r = base.fork("resample", it);
        std::vector<double> resample(n);
        for (std::size_t i = 0; i < n; ++i) {
          resample[i] = samples[static_cast<std::size_t>(
              r.uniform_int(0, static_cast<int>(n) - 1))];
        }
        return statistic(resample);
      });
}

ConfidenceInterval bootstrap_median_ci(std::span<const double> samples,
                                       Rng& rng, double level, int iterations,
                                       int threads) {
  const RankedSample ranked{samples};
  const Rng base{rng.next_u64()};
  return percentile_interval(
      ranked.median(), level, iterations, threads, [&](std::size_t it) {
        return ranked.resampled_median(base.fork("resample", it));
      });
}

ConfidenceInterval bootstrap_median_delta_ci(std::span<const double> xs,
                                             std::span<const double> base_xs,
                                             Rng& rng, double level,
                                             int iterations, int threads) {
  const RankedSample ranked{xs};
  const RankedSample ranked_base{base_xs};
  const Rng base{rng.next_u64()};
  return percentile_interval(
      ranked.median() - ranked_base.median(), level, iterations, threads,
      [&](std::size_t it) {
        return ranked.resampled_median(base.fork("cell", it)) -
               ranked_base.resampled_median(base.fork("base", it));
      });
}

}  // namespace wheels::analysis
