#include "measure/csv_export.hpp"

#include <filesystem>
#include <fstream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

#include "core/obs/metrics.hpp"
#include "measure/csv_codec.hpp"
#include "measure/csv_schema.hpp"
#include "measure/enum_names.hpp"

namespace wheels::measure {

namespace {

constexpr char kCoverageHeader[] = "carrier,view,map_km_start,map_km_end,tech";

constexpr char kSummaryHeader[] = "key,carrier,value";

constexpr char kCellsHeader[] = "carrier,view,cell_id";

using Cells = std::vector<std::string_view>;

/// The bundle file of the record table `db.*Table`, laid out by `Schema`.
template <auto Table, const auto& Schema>
BundleFile table_file(std::string name, bool optional = false) {
  using Record = typename std::remove_cvref_t<
      decltype(std::declval<ConsolidatedDb&>().*Table)>::value_type;
  BundleFile file;
  file.name = std::move(name);
  if (optional) {
    file.present = [](const ConsolidatedDb& db) {
      return !(db.*Table).empty();
    };
  }
  file.write = [](std::ostream& os, const ConsolidatedDb& db) {
    schema::write_table(os, Schema, db.*Table);
  };
  file.read = [](std::istream& is, ConsolidatedDb& db) {
    db.*Table = schema::read_table<Record>(is, Schema);
  };
  return file;
}

/// One carrier's coverage view, passive (logger) or active (tests).
template <typename Db>
auto& coverage(Db& db, radio::Carrier c, bool passive) {
  const std::size_t ci = carrier_index(c);
  return passive ? db.passive[ci].segments : db.active_coverage[ci];
}

}  // namespace

std::string csv_double(double v) {
  char buf[csv::kMaxDoubleChars];
  return std::string(buf, csv::format_double(buf, v));
}

void write_tests_csv(std::ostream& os, const ConsolidatedDb& db) {
  schema::write_table(os, schema::kTests, db.tests);
}
void write_kpis_csv(std::ostream& os, const ConsolidatedDb& db) {
  schema::write_table(os, schema::kKpis, db.kpis);
}
void write_rtts_csv(std::ostream& os, const ConsolidatedDb& db) {
  schema::write_table(os, schema::kRtts, db.rtts);
}
void write_handovers_csv(std::ostream& os, const ConsolidatedDb& db) {
  schema::write_table(os, schema::kHandovers, db.handovers);
}
void write_app_runs_csv(std::ostream& os, const ConsolidatedDb& db) {
  schema::write_table(os, schema::kAppRuns, db.app_runs);
}
void write_link_ticks_csv(std::ostream& os, const ConsolidatedDb& db) {
  schema::write_table(os, schema::kLinkTicks, db.link_ticks);
}
void write_cell_load_csv(std::ostream& os, const ConsolidatedDb& db) {
  schema::write_table(os, schema::kCellLoad, db.cell_load);
}

std::vector<TestRecord> read_tests_csv(std::istream& is) {
  return schema::read_table<TestRecord>(is, schema::kTests);
}
std::vector<KpiRecord> read_kpis_csv(std::istream& is) {
  return schema::read_table<KpiRecord>(is, schema::kKpis);
}
std::vector<RttRecord> read_rtts_csv(std::istream& is) {
  return schema::read_table<RttRecord>(is, schema::kRtts);
}
std::vector<HandoverRecord> read_handovers_csv(std::istream& is) {
  return schema::read_table<HandoverRecord>(is, schema::kHandovers);
}
std::vector<AppRunRecord> read_app_runs_csv(std::istream& is) {
  return schema::read_table<AppRunRecord>(is, schema::kAppRuns);
}
std::vector<LinkTickRecord> read_link_ticks_csv(std::istream& is) {
  return schema::read_table<LinkTickRecord>(is, schema::kLinkTicks);
}
std::vector<CellLoadRecord> read_cell_load_csv(std::istream& is) {
  return schema::read_table<CellLoadRecord>(is, schema::kCellLoad);
}

void write_coverage_csv(std::ostream& os,
                        const std::vector<CoverageSegment>& segments,
                        radio::Carrier carrier, bool passive) {
  csv::Writer out{os};
  out.text(kCoverageHeader);
  out.put('\n');
  const std::string prefix = std::string{names::to_name(carrier)} +
                             (passive ? ",passive," : ",active,");
  for (const auto& s : segments) {
    out.text(prefix);
    out.cell(s.map_km_start);
    out.put(',');
    out.cell(s.map_km_end);
    out.put(',');
    out.text(names::to_name(s.tech));
    out.put('\n');
  }
}

void write_summary_csv(std::ostream& os, const ConsolidatedDb& db) {
  csv::Writer out{os};
  const auto row = [&](std::string_view key, std::string_view carrier,
                       auto value) {
    out.text(key);
    out.put(',');
    out.text(carrier);
    out.put(',');
    out.cell(value);
    out.put('\n');
  };
  out.text(kSummaryHeader);
  out.put('\n');
  row("driven_km", "", db.driven_km);
  row("rx_bytes", "", db.rx_bytes);
  row("tx_bytes", "", db.tx_bytes);
  for (radio::Carrier c : radio::kAllCarriers) {
    const std::size_t ci = carrier_index(c);
    row("experiment_runtime", names::to_name(c), db.experiment_runtime[ci]);
    row("passive_handovers", names::to_name(c), db.passive[ci].handovers);
    row("passive_pings", names::to_name(c), db.passive[ci].pings);
  }
}

void write_cells_csv(std::ostream& os, const ConsolidatedDb& db) {
  os << kCellsHeader << '\n';
  for (radio::Carrier c : radio::kAllCarriers) {
    const std::size_t ci = carrier_index(c);
    for (const std::uint32_t id : db.active_cells[ci]) {
      os << names::to_name(c) << ",active," << id << '\n';
    }
    for (const std::uint32_t id : db.passive[ci].cells) {
      os << names::to_name(c) << ",passive," << id << '\n';
    }
  }
}

std::vector<CoverageSegment> read_coverage_csv(std::istream& is,
                                               radio::Carrier expected_carrier,
                                               bool expected_passive) {
  std::vector<CoverageSegment> out;
  const std::string_view expected_view =
      expected_passive ? "passive" : "active";
  csv::read_rows(is, csv::TableShape{kCoverageHeader}, [&](const Cells& cells,
                                                           std::size_t line) {
    radio::Carrier carrier{};
    schema::read_cell(cells[0], line, carrier);
    if (carrier != expected_carrier) {
      csv::fail(line, "carrier '" + std::string{cells[0]} +
                          "' does not match the file's '" +
                          std::string{names::to_name(expected_carrier)} + "'");
    }
    if (cells[1] != expected_view) {
      csv::fail(line, "view '" + std::string{cells[1]} +
                          "' does not match the file's '" +
                          std::string{expected_view} + "'");
    }
    CoverageSegment& s = out.emplace_back();
    schema::read_cell(cells[2], line, s.map_km_start);
    schema::read_cell(cells[3], line, s.map_km_end);
    schema::read_cell(cells[4], line, s.tech);
  });
  return out;
}

void read_summary_csv(std::istream& is, ConsolidatedDb& db) {
  csv::read_rows(is, csv::TableShape{kSummaryHeader}, [&](const Cells& cells,
                                                          std::size_t line) {
    const std::string key{cells[0]};
    const std::string_view value = cells[2];
    const bool global = cells[1].empty();
    if (key == "driven_km" || key == "rx_bytes" || key == "tx_bytes") {
      if (!global) csv::fail(line, "key '" + key + "' takes no carrier");
      schema::read_cell(value, line,
                        key == "driven_km"  ? db.driven_km
                        : key == "rx_bytes" ? db.rx_bytes
                                            : db.tx_bytes);
      return;
    }
    if (global) csv::fail(line, "key '" + key + "' requires a carrier");
    radio::Carrier carrier{};
    schema::read_cell(cells[1], line, carrier);
    const std::size_t ci = carrier_index(carrier);
    if (key == "experiment_runtime") {
      schema::read_cell(value, line, db.experiment_runtime[ci]);
    } else if (key == "passive_handovers") {
      db.passive[ci].carrier = carrier;
      schema::read_cell(value, line, db.passive[ci].handovers);
    } else if (key == "passive_pings") {
      db.passive[ci].carrier = carrier;
      schema::read_cell(value, line, db.passive[ci].pings);
    } else {
      csv::fail(line, "unknown summary key '" + key + "'");
    }
  });
}

void read_cells_csv(std::istream& is, ConsolidatedDb& db) {
  csv::read_rows(is, csv::TableShape{kCellsHeader}, [&](const Cells& cells,
                                                        std::size_t line) {
    radio::Carrier carrier{};
    schema::read_cell(cells[0], line, carrier);
    const std::size_t ci = carrier_index(carrier);
    std::uint32_t id = 0;
    schema::read_cell(cells[2], line, id);
    if (cells[1] == "active") {
      db.active_cells[ci].insert(id);
    } else if (cells[1] == "passive") {
      db.passive[ci].carrier = carrier;
      db.passive[ci].cells.insert(id);
    } else {
      csv::fail(line, "unknown view '" + std::string{cells[1]} +
                          "' (expected active|passive)");
    }
  });
}

const std::vector<BundleFile>& bundle_files() {
  static const std::vector<BundleFile> files = [] {
    std::vector<BundleFile> out{
        table_file<&ConsolidatedDb::tests, schema::kTests>("tests.csv"),
        table_file<&ConsolidatedDb::kpis, schema::kKpis>("kpis.csv"),
        table_file<&ConsolidatedDb::rtts, schema::kRtts>("rtts.csv"),
        table_file<&ConsolidatedDb::handovers, schema::kHandovers>(
            "handovers.csv"),
        table_file<&ConsolidatedDb::app_runs, schema::kAppRuns>(
            "app_runs.csv"),
        table_file<&ConsolidatedDb::link_ticks, schema::kLinkTicks>(
            "link_ticks.csv", true),
        table_file<&ConsolidatedDb::cell_load, schema::kCellLoad>(
            "cell_load.csv", true),
    };
    for (radio::Carrier c : radio::kAllCarriers) {
      for (const bool passive : {true, false}) {
        out.push_back(
            {std::string{passive ? "coverage_passive_" : "coverage_active_"} +
                 std::string{radio::carrier_name(c)} + ".csv",
             nullptr,
             [c, passive](std::ostream& os, const ConsolidatedDb& db) {
               write_coverage_csv(os, coverage(db, c, passive), c, passive);
             },
             [c, passive](std::istream& is, ConsolidatedDb& db) {
               db.passive[carrier_index(c)].carrier = c;
               coverage(db, c, passive) = read_coverage_csv(is, c, passive);
             }});
      }
    }
    out.push_back({"summary.csv", nullptr, write_summary_csv,
                   read_summary_csv});
    out.push_back({"cells.csv", nullptr, write_cells_csv, read_cells_csv});
    return out;
  }();
  return files;
}

std::vector<std::string> write_dataset(
    const ConsolidatedDb& db, const std::string& directory,
    const core::obs::RunManifest& manifest) {
  namespace fs = std::filesystem;
  fs::create_directories(directory);
  std::vector<std::string> written;
  for (const BundleFile& file : bundle_files()) {
    if (file.present != nullptr && !file.present(db)) continue;
    const fs::path path = fs::path(directory) / file.name;
    std::ofstream os{path};
    if (!os) throw std::runtime_error{"csv: cannot open " + path.string()};
    file.write(os, db);
    written.push_back(path.string());
  }
  const fs::path manifest_path = fs::path(directory) / "manifest.json";
  core::obs::write_manifest(manifest, manifest_path.string());
  written.push_back(manifest_path.string());

  core::obs::flush_to_env_sinks();
  return written;
}

std::vector<std::string> write_dataset(const ConsolidatedDb& db,
                                       const std::string& directory) {
  return write_dataset(db, directory, core::obs::make_run_manifest());
}

}  // namespace wheels::measure
