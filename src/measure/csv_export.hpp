// CSV export/import of the consolidated database.
//
// The paper releases its dataset and scripts publicly [8]; this module is
// the equivalent release path: every table of the ConsolidatedDb is written
// as CSV and every table can be read back, so a bundle directory reassembles
// into the full database (src/replay/ ingests bundles through these readers
// and re-runs the transport/app stack over them).
//
// Format contracts:
//  - each of the seven record tables declares its columns once, in
//    measure/csv_schema.hpp; its header, writer and reader derive from it;
//  - cells go through the strict codec of measure/csv_codec.hpp: doubles
//    in the %.17g form, so a written-then-read value is bit-identical,
//    enums as the printed names of measure/enum_names.hpp;
//  - readers are strict: truncated rows, unknown enum names, non-finite
//    numbers and duplicated headers all raise std::runtime_error citing the
//    offending 1-based line ("line N: ..."). Nothing is silently skipped;
//  - bundle_files() is the one list of a bundle's files.
#pragma once

#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/obs/manifest.hpp"
#include "measure/records.hpp"

namespace wheels::measure {

/// Format `v` exactly as the CSV writers below do (the %.17g form, so the
/// text converts back to the identical bits) — for auxiliary tables (fleet
/// aggregates, golden expectations) that must diff cleanly against files
/// this module wrote.
std::string csv_double(double v);

void write_tests_csv(std::ostream& os, const ConsolidatedDb& db);
void write_kpis_csv(std::ostream& os, const ConsolidatedDb& db);
void write_rtts_csv(std::ostream& os, const ConsolidatedDb& db);
void write_handovers_csv(std::ostream& os, const ConsolidatedDb& db);
void write_app_runs_csv(std::ostream& os, const ConsolidatedDb& db);
void write_link_ticks_csv(std::ostream& os, const ConsolidatedDb& db);
void write_cell_load_csv(std::ostream& os, const ConsolidatedDb& db);
void write_coverage_csv(std::ostream& os,
                        const std::vector<CoverageSegment>& segments,
                        radio::Carrier carrier, bool passive);
/// Scalar fields of the database (driven_km, byte counters, per-carrier
/// runtimes and passive-logger tallies) as key,carrier,value rows.
void write_summary_csv(std::ostream& os, const ConsolidatedDb& db);
/// Unique cells connected per carrier, active and passive views.
void write_cells_csv(std::ostream& os, const ConsolidatedDb& db);

/// Parse back what the corresponding writer wrote. All readers throw
/// std::runtime_error (with the offending line number) on malformed input.
std::vector<TestRecord> read_tests_csv(std::istream& is);
std::vector<KpiRecord> read_kpis_csv(std::istream& is);
std::vector<RttRecord> read_rtts_csv(std::istream& is);
std::vector<HandoverRecord> read_handovers_csv(std::istream& is);
std::vector<AppRunRecord> read_app_runs_csv(std::istream& is);
std::vector<LinkTickRecord> read_link_ticks_csv(std::istream& is);
std::vector<CellLoadRecord> read_cell_load_csv(std::istream& is);
/// Also verifies every row matches the expected carrier and view (a bundle
/// names both in the file name).
std::vector<CoverageSegment> read_coverage_csv(std::istream& is,
                                               radio::Carrier expected_carrier,
                                               bool expected_passive);
/// Fill `db`'s scalar fields / cell sets from the two auxiliary tables.
void read_summary_csv(std::istream& is, ConsolidatedDb& db);
void read_cells_csv(std::istream& is, ConsolidatedDb& db);

/// One CSV file of a dataset bundle and how to write and read it.
struct BundleFile {
  std::string name;
  /// Set for the optional tables (link_ticks.csv, cell_load.csv): the file
  /// is written only when this returns true — so appless or populationless
  /// campaigns and the bundles recorded before those tables existed keep
  /// their exact bytes — and a bundle without it reads as an empty table.
  bool (*present)(const ConsolidatedDb&) = nullptr;
  std::function<void(std::ostream&, const ConsolidatedDb&)> write;
  std::function<void(std::istream&, ConsolidatedDb&)> read;
};

/// Every CSV file of a bundle, in write (and read) order; manifest.json is
/// the only other file.
const std::vector<BundleFile>& bundle_files();

/// Write the whole dataset bundle into a directory (created if needed),
/// including a manifest.json recording the bundle's provenance. Returns the
/// list of files written. Also flushes the global metrics/trace sinks when
/// WHEELS_METRICS_OUT / WHEELS_TRACE_OUT are set.
std::vector<std::string> write_dataset(const ConsolidatedDb& db,
                                       const std::string& directory,
                                       const core::obs::RunManifest& manifest);

/// As above with a default manifest (library version + start time only; use
/// campaign::make_manifest to record seed, scale and config digest).
std::vector<std::string> write_dataset(const ConsolidatedDb& db,
                                       const std::string& directory);

}  // namespace wheels::measure
