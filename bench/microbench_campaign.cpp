// google-benchmark: end-to-end campaign simulation cost. The full-scale
// (5,711 km) campaign must stay laptop-fast; this tracks the per-km cost.
// Also the bootstrap CI behind every what-if fleet median.
#include <benchmark/benchmark.h>

#include <vector>

#include "analysis/bootstrap.hpp"
#include "campaign/campaign.hpp"
#include "campaign/fleet_runner.hpp"
#include "core/rng.hpp"

namespace {

using namespace wheels;

void BM_CampaignTiny(benchmark::State& state) {
  campaign::CampaignConfig cfg;
  cfg.scale = 0.01;  // ~57 km
  cfg.seed = 1;
  cfg.threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const auto db = campaign::DriveCampaign{cfg}.run();
    benchmark::DoNotOptimize(db.kpis.size());
  }
}
// threads=1 is the serial path, threads=4 the per-carrier fan-out — both
// produce the identical database, so this pair measures pure overhead/gain.
BENCHMARK(BM_CampaignTiny)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_FleetRunner(benchmark::State& state) {
  std::vector<campaign::CampaignConfig> configs(4);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    configs[i].scale = 0.01;
    configs[i].seed = i + 1;
    configs[i].run_apps = false;
    configs[i].run_static = false;
  }
  const campaign::FleetRunner runner{static_cast<int>(state.range(0))};
  for (auto _ : state) {
    const auto dbs = runner.run_all(configs);
    benchmark::DoNotOptimize(dbs.size());
  }
}
BENCHMARK(BM_FleetRunner)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

// One fleet-sized median CI: 300 resamples of n lognormal samples rounded to
// 0.01 (so ties occur, as in the recorded series). s_per_draw is the cost of
// one resampled element, e.g. "14n" = 14 ns.
void BM_BootstrapMedianCi(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  constexpr int kIterations = 300;
  Rng gen{1};
  std::vector<double> xs(n);
  for (double& x : xs) x = static_cast<double>(static_cast<long>(
                               gen.lognormal(3.0, 1.0) * 100.0)) / 100.0;
  for (auto _ : state) {
    Rng rng{7};
    const auto ci = analysis::bootstrap_median_ci(xs, rng, 0.95, kIterations,
                                                  threads);
    benchmark::DoNotOptimize(ci.lo);
  }
  state.counters["s_per_draw"] = benchmark::Counter(
      static_cast<double>(n) * kIterations,
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_BootstrapMedianCi)
    ->ArgsProduct({{1000, 6400}, {1, 4}})
    ->ArgNames({"n", "threads"})
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

void BM_CampaignNoApps(benchmark::State& state) {
  campaign::CampaignConfig cfg;
  cfg.scale = 0.01;
  cfg.seed = 1;
  cfg.run_apps = false;
  cfg.run_static = false;
  for (auto _ : state) {
    const auto db = campaign::DriveCampaign{cfg}.run();
    benchmark::DoNotOptimize(db.kpis.size());
  }
}
BENCHMARK(BM_CampaignNoApps)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
