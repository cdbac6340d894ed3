#include "analysis/bootstrap.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "analysis/stats.hpp"
#include "core/parallel.hpp"

namespace wheels::analysis {

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
  return bootstrap_ci(
      samples,
      [](std::span<const double> xs) {
        return median_of({xs.begin(), xs.end()});
      },
      rng, level, iterations, threads);
}

}  // namespace wheels::analysis
