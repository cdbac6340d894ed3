#include "replay/ingest.hpp"

#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "core/obs/metrics.hpp"
#include "core/obs/trace_export.hpp"
#include "measure/csv_export.hpp"
#include "measure/validate.hpp"

namespace wheels::replay {

ReplayBundle read_dataset(const std::string& directory,
                          std::string_view expected_config_digest) {
  namespace fs = std::filesystem;
  core::obs::ScopedSpan span{"replay.ingest", "replay"};
  const fs::path dir{directory};
  ReplayBundle bundle;
  measure::ConsolidatedDb& db = bundle.db;

  bundle.manifest = core::obs::read_manifest((dir / "manifest.json").string());
  if (!expected_config_digest.empty() &&
      bundle.manifest.config_digest != expected_config_digest) {
    throw std::runtime_error{
        "replay: bundle config digest " + bundle.manifest.config_digest +
        " does not match expected " + std::string{expected_config_digest}};
  }

  // Optional tables (link_ticks.csv, cell_load.csv) are absent from bundles
  // whose campaign produced none of their rows, and from bundles recorded
  // before they existed.
  for (const measure::BundleFile& file : measure::bundle_files()) {
    const fs::path path = dir / file.name;
    if (file.present != nullptr && !fs::exists(path)) continue;
    std::ifstream is{path};
    if (!is) {
      throw std::runtime_error{"replay: missing bundle file " + path.string()};
    }
    // Prefix parse errors with the full path: when a fleet run ingests many
    // bundles, the error must identify which bundle was malformed.
    try {
      file.read(is, db);
    } catch (const std::runtime_error& e) {
      throw std::runtime_error{path.string() + ": " + e.what()};
    }
  }

  try {
    measure::validate_or_throw(db);
  } catch (const std::runtime_error& e) {
    throw std::runtime_error{directory + ": " + e.what()};
  }

  auto& reg = core::obs::MetricsRegistry::global();
  static const core::obs::MetricId bundles =
      reg.counter_id("replay.bundles_ingested");
  static const core::obs::MetricId rows =
      reg.counter_id("replay.rows_ingested");
  reg.add(bundles);
  reg.add(rows, db.tests.size() + db.kpis.size() + db.rtts.size() +
                    db.handovers.size() + db.app_runs.size() +
                    db.link_ticks.size());
  return bundle;
}

}  // namespace wheels::replay
