#include <gtest/gtest.h>

#include <cstddef>
#include <stdexcept>

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

}  // namespace
}  // namespace wheels
