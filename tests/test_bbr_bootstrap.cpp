#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/bootstrap.hpp"
#include "analysis/stats.hpp"
#include "transport/tcp_flow.hpp"

namespace wheels {
namespace {

transport::TcpFlowConfig bbr_config() {
  transport::TcpFlowConfig cfg;
  cfg.algo = transport::CcAlgo::Bbr;
  return cfg;
}

TEST(Bbr, SaturatesStableLink) {
  transport::TcpBulkFlow flow{50.0, Rng{1}, bbr_config()};
  for (int i = 0; i < 20; ++i) flow.advance(100.0, 500.0);
  double sum = 0.0;
  constexpr int n = 40;
  for (int i = 0; i < n; ++i) sum += flow.advance(100.0, 500.0);
  const Mbps rate = sum * 8.0 / 1e6 / (n * 0.5);
  EXPECT_GT(rate, 85.0);
  EXPECT_LE(rate, 101.0);
}

TEST(Bbr, KeepsQueueNearOneBdpWhereCubicFillsBuffer) {
  transport::TcpBulkFlow bbr{60.0, Rng{2}, bbr_config()};
  transport::TcpBulkFlow cubic{60.0, Rng{2}};
  for (int i = 0; i < 60; ++i) {
    bbr.advance(50.0, 500.0);
    cubic.advance(50.0, 500.0);
  }
  // BDP at 50 Mbps x 60 ms = 375 KB -> ~60 ms of queue at most for BBR.
  EXPECT_LT(bbr.queue_delay(), 90.0);
  EXPECT_GT(cubic.queue_delay(), 1.8 * bbr.queue_delay());
}

TEST(Bbr, TracksCapacityDrop) {
  transport::TcpBulkFlow flow{40.0, Rng{3}, bbr_config()};
  for (int i = 0; i < 30; ++i) flow.advance(80.0, 500.0);
  EXPECT_GT(flow.btl_bw_estimate(), 50.0);
  // Capacity collapses; the max filter expires within ~2.5 s.
  for (int i = 0; i < 12; ++i) flow.advance(3.0, 500.0);
  EXPECT_LT(flow.btl_bw_estimate(), 10.0);
  // And recovers.
  double sum = 0.0;
  for (int i = 0; i < 40; ++i) sum += flow.advance(80.0, 500.0);
  EXPECT_GT(sum * 8.0 / 1e6 / 20.0, 50.0);
}

TEST(Bbr, LossAgnostic) {
  transport::TcpFlowConfig cfg = bbr_config();
  cfg.random_loss_p = 0.05;  // 5% per fluid step would cripple CUBIC
  transport::TcpBulkFlow bbr{50.0, Rng{4}, cfg};
  transport::TcpFlowConfig ccfg;
  ccfg.random_loss_p = 0.05;
  transport::TcpBulkFlow cubic{50.0, Rng{4}, ccfg};
  double b = 0.0, c = 0.0;
  for (int i = 0; i < 60; ++i) {
    b += bbr.advance(100.0, 500.0);
    c += cubic.advance(100.0, 500.0);
  }
  EXPECT_GT(b, 2.0 * c);
}

TEST(Bbr, Deterministic) {
  transport::TcpBulkFlow a{50.0, Rng{5}, bbr_config()};
  transport::TcpBulkFlow b{50.0, Rng{5}, bbr_config()};
  for (int i = 0; i < 30; ++i) {
    EXPECT_DOUBLE_EQ(a.advance(70.0, 500.0), b.advance(70.0, 500.0));
  }
}

TEST(Bbr, CcAlgoNames) {
  EXPECT_EQ(transport::cc_algo_name(transport::CcAlgo::Cubic), "cubic");
  EXPECT_EQ(transport::cc_algo_name(transport::CcAlgo::Bbr), "bbr");
}

TEST(Bootstrap, MedianCiCoversTruth) {
  Rng data_rng{10};
  std::vector<double> xs(400);
  for (auto& x : xs) x = data_rng.normal(50.0, 10.0);
  Rng rng{11};
  const auto ci = analysis::bootstrap_median_ci(xs, rng);
  EXPECT_TRUE(ci.contains(ci.point));
  EXPECT_TRUE(ci.contains(50.0));  // wide-n CI should cover the true median
  EXPECT_LT(ci.width(), 10.0);
  EXPECT_GT(ci.width(), 0.1);
}

TEST(Bootstrap, WidthShrinksWithSampleSize) {
  Rng data_rng{12};
  std::vector<double> small(50), big(5000);
  for (auto& x : small) x = data_rng.lognormal(3.0, 1.0);
  for (auto& x : big) x = data_rng.lognormal(3.0, 1.0);
  Rng r1{13}, r2{13};
  const auto ci_small = analysis::bootstrap_median_ci(small, r1);
  const auto ci_big = analysis::bootstrap_median_ci(big, r2);
  EXPECT_LT(ci_big.width(), ci_small.width());
}

TEST(Bootstrap, CustomStatistic) {
  const std::vector<double> xs{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  Rng rng{14};
  const auto ci = analysis::bootstrap_ci(
      xs,
      [](std::span<const double> s) {
        double m = 0.0;
        for (double v : s) m += v;
        return m / static_cast<double>(s.size());
      },
      rng, 0.9, 500);
  EXPECT_NEAR(ci.point, 5.5, 1e-12);
  EXPECT_LT(ci.lo, 5.5);
  EXPECT_GT(ci.hi, 5.5);
}

TEST(Bootstrap, Deterministic) {
  const std::vector<double> xs{3, 1, 4, 1, 5, 9, 2, 6};
  Rng a{15}, b{15};
  const auto c1 = analysis::bootstrap_median_ci(xs, a);
  const auto c2 = analysis::bootstrap_median_ci(xs, b);
  EXPECT_DOUBLE_EQ(c1.lo, c2.lo);
  EXPECT_DOUBLE_EQ(c1.hi, c2.hi);
}

TEST(Bootstrap, RejectsBadInput) {
  Rng rng{16};
  EXPECT_THROW((void)analysis::bootstrap_median_ci({}, rng),
               std::invalid_argument);
  const std::vector<double> xs{1.0, 2.0};
  EXPECT_THROW((void)analysis::bootstrap_median_ci(xs, rng, 1.5),
               std::invalid_argument);
}

TEST(Bootstrap, ZeroIterationsThrowsAtEveryThreadCount) {
  // Zero iterations leave no statistics to read a percentile from; that
  // must be an argument error, not a read before an empty vector.
  const std::vector<double> xs{1.0, 2.0, 3.0};
  for (const int threads : {1, 4}) {
    Rng rng{17};
    EXPECT_THROW((void)analysis::bootstrap_median_ci(xs, rng, 0.95, 0, threads),
                 std::invalid_argument);
    EXPECT_THROW(
        (void)analysis::bootstrap_median_ci(xs, rng, 0.95, -3, threads),
        std::invalid_argument);
  }
  EXPECT_THROW((void)analysis::percentile_interval(
                   0.0, 0.95, 0, 1, [](std::size_t) { return 0.0; }),
               std::invalid_argument);
}

// The copying bootstrap the ranked resampler replaced, kept as its oracle:
// n draws copied into a fresh vector, then median_of's nth_element.
double copied_resample_median(Rng r, std::span<const double> from) {
  std::vector<double> into(from.size());
  for (double& x : into) {
    x = from[static_cast<std::size_t>(
        r.uniform_int(0, static_cast<int>(from.size()) - 1))];
  }
  return analysis::median_of(std::move(into));
}

analysis::ConfidenceInterval copied_median_ci(std::span<const double> xs,
                                              Rng& rng, int iterations) {
  const Rng base{rng.next_u64()};
  return analysis::percentile_interval(
      analysis::median_of({xs.begin(), xs.end()}), 0.95, iterations, 1,
      [&](std::size_t it) {
        return copied_resample_median(base.fork("resample", it), xs);
      });
}

analysis::ConfidenceInterval copied_delta_ci(std::span<const double> xs,
                                             std::span<const double> base_xs,
                                             Rng& rng, int iterations) {
  const Rng base{rng.next_u64()};
  return analysis::percentile_interval(
      analysis::median_of({xs.begin(), xs.end()}) -
          analysis::median_of({base_xs.begin(), base_xs.end()}),
      0.95, iterations, 1, [&](std::size_t it) {
        return copied_resample_median(base.fork("cell", it), xs) -
               copied_resample_median(base.fork("base", it), base_xs);
      });
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_same_bits(const analysis::ConfidenceInterval& got,
                      const analysis::ConfidenceInterval& want,
                      const std::string& what) {
  EXPECT_EQ(bits(got.lo), bits(want.lo)) << what << " lo";
  EXPECT_EQ(bits(got.hi), bits(want.hi)) << what << " hi";
  EXPECT_EQ(bits(got.point), bits(want.point)) << what << " point";
}

/// Random series of length n: continuous, all equal, heavy ties (six
/// distinct values), or all negative.
std::vector<std::pair<std::string, std::vector<double>>> oracle_series(
    std::size_t n, Rng& gen) {
  std::vector<double> continuous(n), equal(n, 42.5), ties(n), negative(n);
  for (double& x : continuous) x = gen.lognormal(3.0, 1.0);
  for (double& x : ties) x = 0.5 * gen.uniform_int(0, 5);
  for (double& x : negative) x = -gen.lognormal(2.0, 1.5);
  return {{"continuous", continuous},
          {"equal", equal},
          {"ties", ties},
          {"negative", negative}};
}

TEST(Bootstrap, CountedMedianMatchesCopyAndNthElement) {
  constexpr int kIterations = 300;
  Rng gen{18};
  std::uint64_t seed = 100;
  for (const std::size_t n : {1u, 2u, 3u, 10u, 999u, 1000u, 6400u}) {
    const auto series = oracle_series(n, gen);
    const auto base_series = oracle_series(n == 1 ? 2 : n - 1, gen);
    for (std::size_t k = 0; k < series.size(); ++k) {
      const std::vector<double>& xs = series[k].second;
      const std::vector<double>& base_xs =
          base_series[(k + 1) % base_series.size()].second;
      const std::string what =
          series[k].first + " n=" + std::to_string(n);
      ++seed;
      Rng want_rng{seed};
      const auto want = copied_median_ci(xs, want_rng, kIterations);
      Rng want_delta_rng{seed};
      const auto want_delta =
          copied_delta_ci(xs, base_xs, want_delta_rng, kIterations);
      for (const int threads : {1, 4}) {
        Rng rng{seed};
        expect_same_bits(analysis::bootstrap_median_ci(xs, rng, 0.95,
                                                       kIterations, threads),
                         want, what + " threads=" + std::to_string(threads));
        Rng delta_rng{seed};
        expect_same_bits(
            analysis::bootstrap_median_delta_ci(xs, base_xs, delta_rng, 0.95,
                                                kIterations, threads),
            want_delta,
            "delta " + what + " threads=" + std::to_string(threads));
      }
    }
  }
}

TEST(Bootstrap, SignedZerosOrderNegativeFirst) {
  // -0.0 == +0.0, so nth_element may return either where both meet; the
  // ranked resampler orders -0.0 first, which fixes the median's sign bit.
  const std::vector<double> more_negative{+0.0, -0.0, -0.0, 1.0, -1.0};
  const std::vector<double> more_positive{-0.0, +0.0, +0.0, 1.0, -1.0};
  Rng a{19};
  Rng b{19};
  EXPECT_TRUE(std::signbit(
      analysis::bootstrap_median_ci(more_negative, a, 0.95, 50).point));
  EXPECT_FALSE(std::signbit(
      analysis::bootstrap_median_ci(more_positive, b, 0.95, 50).point));

  // Every resample reads its order statistics in that order: the CI equals
  // a copying bootstrap that sorts each resample with -0.0 before +0.0, bit
  // for bit, and the nth_element oracle up to the sign of a zero.
  const auto zero_first = [](double x, double y) {
    return x < y || (x == y && std::signbit(x) && !std::signbit(y));
  };
  const auto ordered_median = [&](std::vector<double> v) {
    std::sort(v.begin(), v.end(), zero_first);
    const std::size_t half = v.size() / 2;
    if (v.size() % 2 == 1) return v[half];
    return (v[half] + v[half - 1]) / 2.0;
  };
  constexpr double kValues[] = {-0.0, +0.0, -1.0, 1.0};
  Rng gen{20};
  for (const std::size_t n : {2u, 5u, 40u, 41u}) {
    std::vector<double> xs(n);
    for (double& x : xs) x = kValues[gen.uniform_int(0, 3)];
    Rng rng{21};
    const auto got = analysis::bootstrap_median_ci(xs, rng, 0.95, 200);
    Rng want_rng{21};
    const Rng base{want_rng.next_u64()};
    const auto want = analysis::percentile_interval(
        ordered_median(xs), 0.95, 200, 1, [&](std::size_t it) {
          Rng r = base.fork("resample", it);
          std::vector<double> resample(n);
          for (double& x : resample) {
            x = xs[static_cast<std::size_t>(
                r.uniform_int(0, static_cast<int>(n) - 1))];
          }
          return ordered_median(std::move(resample));
        });
    expect_same_bits(got, want, "n=" + std::to_string(n));
    Rng copy_rng{21};
    const auto copied = copied_median_ci(xs, copy_rng, 200);
    EXPECT_EQ(got.lo, copied.lo) << "n=" << n;
    EXPECT_EQ(got.hi, copied.hi) << "n=" << n;
    EXPECT_EQ(got.point, copied.point) << "n=" << n;
  }
}

TEST(Bootstrap, MedianCiRejectsNaN) {
  const std::vector<double> xs{1.0, std::numeric_limits<double>::quiet_NaN(),
                               3.0};
  Rng rng{22};
  EXPECT_THROW((void)analysis::bootstrap_median_ci(xs, rng),
               std::invalid_argument);
  EXPECT_THROW((void)analysis::bootstrap_median_delta_ci(
                   std::vector<double>{1.0}, xs, rng),
               std::invalid_argument);
  EXPECT_THROW((void)analysis::bootstrap_median_delta_ci(
                   std::vector<double>{}, std::vector<double>{1.0}, rng),
               std::invalid_argument);
}

}  // namespace
}  // namespace wheels
