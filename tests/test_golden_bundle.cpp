// Golden-bundle regression gate.
//
// tests/golden/bundle is a small recorded campaign (scale 0.02, seed 424242)
// committed to the repo, and tests/golden/expected_summary.csv holds the
// per-carrier headline medians of (a) the recording itself and (b) its
// default-knob replay. Replaying the committed bundle and comparing against
// the committed expectations turns transport/app drift into a readable diff:
// a change that shifts TCP or app behaviour fails here with the exact
// carrier, metric and magnitude instead of surfacing as a flaky timeout
// somewhere downstream.
//
// To refresh the expectations after an *intentional* behaviour change:
//   WHEELS_GOLDEN_REGEN=1 ./build/tests/wheels_tests
//       --gtest_filter=GoldenBundle.*   (one command line)
// then commit the rewritten expected_summary.csv. The bundle itself is a
// frozen input; tests/golden/README.md documents how it was produced.
//
// tests/golden/expected_fleet.csv pins the what-if fleet's aggregate over the
// same bundle (cc=recorded,bbr x server=recorded,edge, seed 424242, 300
// bootstrap iterations): every pooled median and its bootstrap CI, byte for
// byte. It has no regeneration switch: a change that moves one of those
// bytes changes a published number and must be explained, not re-pinned.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "measure/csv_export.hpp"
#include "measure/enum_names.hpp"
#include "replay/fleet.hpp"
#include "replay/ingest.hpp"
#include "replay/replay_campaign.hpp"
#include "replay/report.hpp"

#ifndef WHEELS_GOLDEN_DIR
#error "WHEELS_GOLDEN_DIR must point at the source tree's tests/golden"
#endif

namespace wheels::replay {
namespace {

const std::string kGoldenDir = WHEELS_GOLDEN_DIR;
const std::string kExpectedCsv = kGoldenDir + "/expected_summary.csv";
const std::string kExpectedFleetCsv = kGoldenDir + "/expected_fleet.csv";
constexpr std::uint64_t kGoldenSeed = 424242;
constexpr double kGoldenScale = 0.02;

const ReplayBundle& golden() {
  static const ReplayBundle bundle = read_dataset(kGoldenDir + "/bundle");
  return bundle;
}

const ReportSummary& recorded_summary() {
  static const ReportSummary s = summarize(golden().db);
  return s;
}

const ReportSummary& replayed_summary() {
  static const ReportSummary s = [] {
    ReplayConfig cfg;
    cfg.threads = 1;
    return summarize(ReplayCampaign{golden(), cfg}.run());
  }();
  return s;
}

std::string summary_row(const char* kind, const CarrierSummary& c) {
  std::ostringstream os;
  os << kind << ',' << measure::names::to_name(c.carrier) << ',' << c.tests
     << ',' << c.kpi_samples << ',' << c.rtt_samples << ',' << c.app_runs
     << ',' << measure::csv_double(c.dl_median_mbps) << ','
     << measure::csv_double(c.ul_median_mbps) << ','
     << measure::csv_double(c.rtt_median_ms) << ','
     << measure::csv_double(c.video_qoe) << ','
     << measure::csv_double(c.gaming_latency_ms) << ','
     << measure::csv_double(c.offload_e2e_ms);
  return os.str();
}

struct ExpectedRow {
  std::string kind;
  std::string carrier;
  std::vector<std::string> counts;   // tests, kpi_samples, rtt_samples, runs
  std::vector<double> medians;       // the six headline medians
};

std::vector<ExpectedRow> read_expected() {
  std::ifstream is{kExpectedCsv};
  if (!is) {
    ADD_FAILURE() << "missing " << kExpectedCsv
                  << " — regenerate with WHEELS_GOLDEN_REGEN=1";
    return {};
  }
  std::vector<ExpectedRow> rows;
  std::string line;
  std::getline(is, line);  // header
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    std::vector<std::string> fields;
    std::string field;
    std::istringstream ls{line};
    while (std::getline(ls, field, ',')) fields.push_back(field);
    if (fields.size() != 12) {
      ADD_FAILURE() << "malformed expected row: " << line;
      continue;
    }
    ExpectedRow row;
    row.kind = fields[0];
    row.carrier = fields[1];
    row.counts = {fields[2], fields[3], fields[4], fields[5]};
    for (std::size_t i = 6; i < 12; ++i) {
      row.medians.push_back(std::stod(fields[i]));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

/// True (and rewrites the expectations) when WHEELS_GOLDEN_REGEN is set.
bool regen_if_requested() {
  const char* regen = std::getenv("WHEELS_GOLDEN_REGEN");
  if (regen == nullptr || std::string{regen}.empty()) return false;
  std::ofstream os{kExpectedCsv};
  if (!os) {
    ADD_FAILURE() << "cannot write " << kExpectedCsv;
    return true;
  }
  os << "kind,carrier,tests,kpi_samples,rtt_samples,app_runs,dl_median_mbps,"
        "ul_median_mbps,rtt_median_ms,video_qoe,gaming_latency_ms,"
        "offload_e2e_ms\n";
  for (const CarrierSummary& c : recorded_summary().carriers) {
    os << summary_row("recorded", c) << '\n';
  }
  for (const CarrierSummary& c : replayed_summary().carriers) {
    os << summary_row("replayed", c) << '\n';
  }
  return true;
}

/// Compare one summary against the expected rows of `kind`. Counts must be
/// exact; medians within `rel` of the checked-in value (with a tiny absolute
/// floor so exact-zero app metrics compare cleanly).
void expect_matches(const ReportSummary& summary, const std::string& kind,
                    double rel) {
  const std::vector<ExpectedRow> rows = read_expected();
  std::size_t matched = 0;
  for (const ExpectedRow& row : rows) {
    if (row.kind != kind) continue;
    const CarrierSummary* actual = nullptr;
    for (const CarrierSummary& c : summary.carriers) {
      if (measure::names::to_name(c.carrier) == row.carrier) actual = &c;
    }
    ASSERT_NE(actual, nullptr) << "unknown carrier " << row.carrier;
    ++matched;
    EXPECT_EQ(std::to_string(actual->tests), row.counts[0]) << row.carrier;
    EXPECT_EQ(std::to_string(actual->kpi_samples), row.counts[1])
        << row.carrier;
    EXPECT_EQ(std::to_string(actual->rtt_samples), row.counts[2])
        << row.carrier;
    EXPECT_EQ(std::to_string(actual->app_runs), row.counts[3]) << row.carrier;
    const double actual_medians[6] = {
        actual->dl_median_mbps,  actual->ul_median_mbps,
        actual->rtt_median_ms,   actual->video_qoe,
        actual->gaming_latency_ms, actual->offload_e2e_ms};
    for (std::size_t m = 0; m < 6; ++m) {
      const double tol = std::max(std::abs(row.medians[m]) * rel, 1e-9);
      EXPECT_NEAR(actual_medians[m], row.medians[m], tol)
          << kind << ' ' << row.carrier << " metric " << m;
    }
  }
  EXPECT_EQ(matched, summary.carriers.size()) << "rows of kind " << kind;
}

TEST(GoldenBundle, ManifestPinsTheGoldenConfig) {
  EXPECT_EQ(golden().manifest.seed, kGoldenSeed);
  EXPECT_EQ(golden().manifest.scale, kGoldenScale);
}

TEST(GoldenBundle, RerecordingIsByteIdentical) {
  // The committed recording pins the bundle writer's bytes: re-running its
  // campaign reproduces every committed CSV exactly. link_ticks.csv is newer
  // than the recording (the re-run writes one the bundle lacks), and the
  // manifest's wall-clock fields differ by design, so of the manifest only
  // the config digest is compared.
  namespace fs = std::filesystem;
  campaign::CampaignConfig cfg;
  cfg.seed = kGoldenSeed;
  cfg.scale = kGoldenScale;
  cfg.threads = 1;
  const fs::path dir = fs::path{testing::TempDir()} / "golden-rerecord";
  fs::remove_all(dir);
  campaign::run_to_bundle(cfg, dir.string());
  const auto bytes = [](const fs::path& path) {
    std::ifstream is{path, std::ios::binary};
    return std::string{std::istreambuf_iterator<char>{is}, {}};
  };
  std::size_t compared = 0;
  for (const auto& entry : fs::directory_iterator{kGoldenDir + "/bundle"}) {
    const std::string name = entry.path().filename().string();
    if (name == "manifest.json") continue;
    EXPECT_TRUE(bytes(dir / name) == bytes(entry.path())) << name;
    ++compared;
  }
  EXPECT_EQ(compared, 13u);
  EXPECT_EQ(core::obs::read_manifest((dir / "manifest.json").string())
                .config_digest,
            golden().manifest.config_digest);
  fs::remove_all(dir);
}

TEST(GoldenBundle, RecordedMediansMatchCheckedInExpectations) {
  if (regen_if_requested()) {
    GTEST_SKIP() << "expectations rewritten to " << kExpectedCsv;
  }
  // The recording is frozen CSV; its medians must round-trip exactly (modulo
  // parse-and-reformat noise far below any physical scale).
  expect_matches(recorded_summary(), "recorded", 1e-12);
}

TEST(GoldenBundle, ReplayedMediansMatchCheckedInExpectations) {
  if (regen_if_requested()) {
    GTEST_SKIP() << "expectations rewritten to " << kExpectedCsv;
  }
  // The replay re-runs transport/apps live over the recorded radio timeline:
  // bit-exact on one platform, a slightly looser relative tolerance absorbs
  // libm differences across platforms while still catching behaviour drift.
  expect_matches(replayed_summary(), "replayed", 1e-6);
}

TEST(GoldenFleet, AggregateCsvMatchesCheckedInAtThreads1And4) {
  std::ifstream is{kExpectedFleetCsv, std::ios::binary};
  ASSERT_TRUE(is) << "missing " << kExpectedFleetCsv;
  const std::string expected{std::istreambuf_iterator<char>{is}, {}};
  for (const int threads : {1, 4}) {
    FleetConfig cfg;
    cfg.replay.seed = kGoldenSeed;
    cfg.threads = threads;
    cfg.ci_iterations = 300;
    apply_grid_axis(cfg.grid, "cc=recorded,bbr");
    apply_grid_axis(cfg.grid, "server=recorded,edge");
    const FleetResult result =
        ReplayFleet{cfg}.run({FleetItem{kGoldenDir + "/bundle", &golden()}});
    std::ostringstream os;
    write_fleet_csv(os, result);
    EXPECT_TRUE(os.str() == expected)
        << "fleet aggregate drifted from " << kExpectedFleetCsv
        << " at threads " << threads << ":\n"
        << os.str();
  }
}

}  // namespace
}  // namespace wheels::replay
