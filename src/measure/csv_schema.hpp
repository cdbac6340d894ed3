// Column schemas of the dataset bundle's record tables.
//
// Each record table declares its columns once, here: the CSV column name
// and the record field it carries. Everything else about a table derives
// from that list — its header, its column count, its writer and strict
// reader (write_table / read_table below) and the paper-table ingest
// adapter's row decoder — so a column cannot change in one place only. A
// field's C++ type picks its cell kind: std::uint32_t, std::int64_t, int,
// double and bool go through the cell codec (measure/csv_codec.hpp),
// dataset enums through the printed names of measure/enum_names.hpp.
#pragma once

#include <cstddef>
#include <functional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <vector>

#include "measure/csv_codec.hpp"
#include "measure/enum_names.hpp"
#include "measure/records.hpp"

namespace wheels::measure::schema {

template <typename Get>
struct Column {
  std::string_view name;
  /// A member pointer, or a path into a nested struct: std::invoke(get, r)
  /// is the record's field.
  Get get;
};

template <typename Get>
Column(const char*, Get) -> Column<Get>;

/// Path to a field of HandoverRecord::event.
constexpr auto event(auto ran::HandoverEvent::*field) {
  return [field](auto& h) -> auto& { return h.event.*field; };
}

inline constexpr std::tuple kTests{
    Column{"id", &TestRecord::id},
    Column{"type", &TestRecord::type},
    Column{"carrier", &TestRecord::carrier},
    Column{"is_static", &TestRecord::is_static},
    Column{"start", &TestRecord::start},
    Column{"end", &TestRecord::end},
    Column{"start_km", &TestRecord::start_km},
    Column{"end_km", &TestRecord::end_km},
    Column{"tz", &TestRecord::tz},
    Column{"server", &TestRecord::server},
    Column{"direction", &TestRecord::direction},
    Column{"cycle", &TestRecord::cycle},
};

inline constexpr std::tuple kKpis{
    Column{"test_id", &KpiRecord::test_id},
    Column{"t", &KpiRecord::t},
    Column{"carrier", &KpiRecord::carrier},
    Column{"tech", &KpiRecord::tech},
    Column{"cell_id", &KpiRecord::cell_id},
    Column{"rsrp", &KpiRecord::rsrp},
    Column{"mcs", &KpiRecord::mcs},
    Column{"bler", &KpiRecord::bler},
    Column{"ca", &KpiRecord::ca},
    Column{"throughput", &KpiRecord::throughput},
    Column{"speed", &KpiRecord::speed},
    Column{"km", &KpiRecord::km},
    Column{"map_km", &KpiRecord::map_km},
    Column{"tz", &KpiRecord::tz},
    Column{"region", &KpiRecord::region},
    Column{"handovers", &KpiRecord::handovers},
    Column{"server", &KpiRecord::server},
    Column{"direction", &KpiRecord::direction},
    Column{"is_static", &KpiRecord::is_static},
};

inline constexpr std::tuple kRtts{
    Column{"test_id", &RttRecord::test_id},
    Column{"t", &RttRecord::t},
    Column{"carrier", &RttRecord::carrier},
    Column{"tech", &RttRecord::tech},
    Column{"rtt", &RttRecord::rtt},
    Column{"speed", &RttRecord::speed},
    Column{"tz", &RttRecord::tz},
    Column{"server", &RttRecord::server},
    Column{"is_static", &RttRecord::is_static},
};

inline constexpr std::tuple kHandovers{
    Column{"test_id", &HandoverRecord::test_id},
    Column{"carrier", &HandoverRecord::carrier},
    Column{"direction", &HandoverRecord::direction},
    Column{"t", event(&ran::HandoverEvent::t)},
    Column{"duration", event(&ran::HandoverEvent::duration)},
    Column{"from_tech", event(&ran::HandoverEvent::from)},
    Column{"to_tech", event(&ran::HandoverEvent::to)},
    Column{"from_cell", event(&ran::HandoverEvent::from_cell)},
    Column{"to_cell", event(&ran::HandoverEvent::to_cell)},
    Column{"type", event(&ran::HandoverEvent::type)},
};

inline constexpr std::tuple kAppRuns{
    Column{"test_id", &AppRunRecord::test_id},
    Column{"app", &AppRunRecord::app},
    Column{"carrier", &AppRunRecord::carrier},
    Column{"is_static", &AppRunRecord::is_static},
    Column{"server", &AppRunRecord::server},
    Column{"high_speed_5g_fraction", &AppRunRecord::high_speed_5g_fraction},
    Column{"handovers", &AppRunRecord::handovers},
    Column{"compressed", &AppRunRecord::compressed},
    Column{"median_e2e", &AppRunRecord::median_e2e},
    Column{"offload_fps", &AppRunRecord::offload_fps},
    Column{"map_percent", &AppRunRecord::map_percent},
    Column{"qoe", &AppRunRecord::qoe},
    Column{"rebuffer_fraction", &AppRunRecord::rebuffer_fraction},
    Column{"avg_bitrate", &AppRunRecord::avg_bitrate},
    Column{"gaming_bitrate", &AppRunRecord::gaming_bitrate},
    Column{"gaming_latency", &AppRunRecord::gaming_latency},
    Column{"gaming_frame_drop", &AppRunRecord::gaming_frame_drop},
    Column{"gaming_max_frame_drop", &AppRunRecord::gaming_max_frame_drop},
};

inline constexpr std::tuple kLinkTicks{
    Column{"test_id", &LinkTickRecord::test_id},
    Column{"t", &LinkTickRecord::t},
    Column{"carrier", &LinkTickRecord::carrier},
    Column{"tech", &LinkTickRecord::tech},
    Column{"cap_dl", &LinkTickRecord::cap_dl},
    Column{"cap_ul", &LinkTickRecord::cap_ul},
    Column{"rtt", &LinkTickRecord::rtt},
    Column{"interruption", &LinkTickRecord::interruption},
    Column{"handovers", &LinkTickRecord::handovers},
};

inline constexpr std::tuple kCellLoad{
    Column{"carrier", &CellLoadRecord::carrier},
    Column{"cell_id", &CellLoadRecord::cell_id},
    Column{"tech", &CellLoadRecord::tech},
    Column{"ticks", &CellLoadRecord::ticks},
    Column{"avg_attached", &CellLoadRecord::avg_attached},
    Column{"avg_active", &CellLoadRecord::avg_active},
    Column{"avg_demand", &CellLoadRecord::avg_demand},
    Column{"avg_allocated", &CellLoadRecord::avg_allocated},
    Column{"avg_capacity", &CellLoadRecord::avg_capacity},
    Column{"utilization", &CellLoadRecord::utilization},
    Column{"fairness", &CellLoadRecord::fairness},
};

/// The table's header line: its column names joined with commas.
template <typename... C>
std::string header(const std::tuple<C...>& schema) {
  std::string out;
  std::apply(
      [&](const auto&... c) {
        ((out.append(out.empty() ? "" : ",").append(c.name)), ...);
      },
      schema);
  return out;
}

/// Write one field: a number through the codec, an enum as its name.
template <typename T>
void write_cell(csv::Writer& out, const T& v) {
  if constexpr (std::is_enum_v<T>) {
    out.text(names::to_name(v));
  } else {
    out.cell(v);
  }
}

/// Read one field strictly; errors cite `line`.
template <typename T>
void read_cell(std::string_view cell, std::size_t line, T& field) {
  if constexpr (std::is_enum_v<T>) {
    try {
      names::parse(cell, field);
    } catch (const std::runtime_error& e) {
      csv::fail(line, e.what());
    }
  } else {
    csv::decode(cell, line, field);
  }
}

/// Write `rows` as the table `schema` describes: header, then one line per
/// record, streamed through the codec's bounded buffer.
template <typename Schema, typename Record>
void write_table(std::ostream& os, const Schema& schema,
                 const std::vector<Record>& rows) {
  csv::Writer out{os};
  out.text(header(schema));
  out.put('\n');
  for (const Record& r : rows) {
    std::apply(
        [&](const auto&... c) {
          std::size_t i = 0;
          ((i++ == 0 ? void() : out.put(','),
            write_cell(out, std::invoke(c.get, r))),
           ...);
        },
        schema);
    out.put('\n');
  }
}

/// Decode one data row, one cell per column, into `r`; errors cite `line`.
template <typename Schema, typename Record>
void decode_row(const Schema& schema,
                const std::vector<std::string_view>& cells, std::size_t line,
                Record& r) {
  std::apply(
      [&](const auto&... c) {
        std::size_t i = 0;
        (read_cell(cells[i++], line, std::invoke(c.get, r)), ...);
      },
      schema);
}

/// Strictly read back what write_table wrote: exact header, exact column
/// count per row, every cell valid for its field; throws "line N: ...".
template <typename Record, typename Schema>
std::vector<Record> read_table(std::istream& is, const Schema& schema) {
  std::vector<Record> out;
  csv::read_rows(is, csv::TableShape{header(schema)},
                 [&](const auto& cells, std::size_t line) {
                   decode_row(schema, cells, line, out.emplace_back());
                 });
  return out;
}

}  // namespace wheels::measure::schema
