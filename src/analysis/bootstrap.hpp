// Bootstrap confidence intervals.
//
// The paper reports point estimates; when comparing our simulated medians
// against them it matters whether a gap is real or sampling noise. This is a
// standard percentile bootstrap over resampled datasets.
#pragma once

#include <cstddef>
#include <functional>
#include <span>

#include "core/rng.hpp"

namespace wheels::analysis {

struct ConfidenceInterval {
  double lo = 0.0;
  double hi = 0.0;
  double point = 0.0;

  bool contains(double v) const { return v >= lo && v <= hi; }
  double width() const { return hi - lo; }
};

/// Percentile-bootstrap CI for `statistic` over `samples`.
/// `level` is the two-sided confidence level (e.g. 0.95).
///
/// Each resample draws from its own child stream forked off `rng`
/// (`fork("resample", it)`), so the result is identical for every `threads`
/// value: the multiset of bootstrap statistics does not depend on how
/// iterations are partitioned across workers, and the stats are sorted
/// before the quantiles are read. `threads` = 1 (default) runs inline;
/// 0 = auto (WHEELS_THREADS, else hardware_concurrency). `statistic` must be
/// safe to call concurrently from several threads (a pure function of its
/// span — which every statistic in analysis/stats.hpp is).
ConfidenceInterval bootstrap_ci(
    std::span<const double> samples,
    const std::function<double(std::span<const double>)>& statistic, Rng& rng,
    double level = 0.95, int iterations = 1000, int threads = 1);

/// The percentile-bootstrap core behind bootstrap_ci and every other
/// resampling CI: stats[it] = draw(it) for it in [0, iterations), fanned
/// `threads` wide (draw must be a pure function of `it`, safe to call
/// concurrently), sorted, and the two-sided `level` interval read off around
/// `point`. Throws std::invalid_argument when iterations < 1 or `level` is
/// outside (0, 1).
ConfidenceInterval percentile_interval(
    double point, double level, int iterations, int threads,
    const std::function<double(std::size_t)>& draw);

/// CI of the median, by a ranked resampler that never copies a resample.
///
/// The series is sorted once, and every original index knows its position
/// in that order. Each iteration forks the same child stream
/// (`fork("resample", it)`), makes the same n `uniform_int(0, n - 1)` draws
/// in the same order, and counts how often each position was drawn. A
/// prefix walk of the counts yields the resample's (n/2)-th order statistic
/// m (and the (n/2 - 1)-th, `lower`, when n is even), combined by
/// median_of's expression `(m + lower) / 2.0`. Same draws, same stream, same
/// expression: every lo/hi/point equals bootstrap_ci's with median_of as the
/// statistic, bit for bit.
///
/// The one pair of distinct doubles that compare equal, -0.0 and +0.0, is
/// ordered -0.0 first, so a series holding both has one defined median bit
/// pattern (median_of's nth_element leaves that pick unspecified). Throws
/// std::invalid_argument for an empty series or one holding NaN.
ConfidenceInterval bootstrap_median_ci(std::span<const double> samples,
                                       Rng& rng, double level = 0.95,
                                       int iterations = 1000, int threads = 1);

/// CI of median(xs) - median(base_xs) from independent resamples of both
/// series per iteration: `xs` draws from `fork("cell", it)`, `base_xs` from
/// `fork("base", it)` of one child of `rng`. Same ranked resampler, ±0 rule
/// and errors as bootstrap_median_ci.
ConfidenceInterval bootstrap_median_delta_ci(std::span<const double> xs,
                                             std::span<const double> base_xs,
                                             Rng& rng, double level = 0.95,
                                             int iterations = 1000,
                                             int threads = 1);

}  // namespace wheels::analysis
