// The paper's released per-table CSVs.
//
// The dataset release ships the ConsolidatedDb tables as individual CSVs
// (measure/csv_export.hpp). A complete bundle goes through
// replay::read_dataset; this adapter covers the partial-release case — a
// lone kpis.csv table — by pivoting its per-direction throughput rows into
// the canonical capacity series: per timestamp, the mean downlink and mean
// uplink app-layer throughput across that carrier's rows. Rows stream
// through an incremental parser that keeps only the per-timestamp
// accumulators (the pivot's inherent state, O(unique ticks), independent of
// the row count). RTTs live in a separate rtts.csv table;
// attach_paper_rtts() / make_paper_rtt_overlay() overlay one when
// available, otherwise the configured fill applies.
#include <istream>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>

#include "measure/csv_export.hpp"
#include "measure/csv_schema.hpp"
#include "measure/enum_names.hpp"

#include "ingest/adapters.hpp"

namespace wheels::ingest {

namespace {

namespace csv = measure::csv;
namespace schema = measure::schema;

const csv::TableShape& kpi_shape() {
  static const csv::TableShape shape{schema::header(schema::kKpis)};
  return shape;
}

class PaperTablesAdapter final : public TraceAdapter {
 public:
  std::string_view name() const override { return "paper"; }

  std::string_view description() const override {
    return "the paper's released kpis.csv table (optionally with a sibling "
           "rtts.csv overlay)";
  }

  int sniff(const SniffInput& input) const override {
    return !input.head.empty() && input.head.front() == kpi_shape().header
               ? 95
               : 0;
  }

  void parse_stream(LineSource& lines, const IngestOptions& options,
                    PointSink& sink) const override {
    if (options.default_rtt_ms <= 0.0) {
      throw std::runtime_error{"paper tables: default rtt must be > 0"};
    }

    const csv::TableShape& shape = kpi_shape();
    std::vector<LineRef> batch;
    const bool any = lines.next_batch(batch);
    shape.check_header(any ? &batch.front().text : nullptr,
                       any ? batch.front().number : 1);
    std::size_t row = 1;

    struct Accumulator {
      double dl_sum = 0.0;
      std::size_t dl_n = 0;
      double ul_sum = 0.0;
      std::size_t ul_n = 0;
      radio::Technology tech = radio::Technology::Lte;
    };
    std::map<SimMillis, Accumulator> by_t;
    std::size_t rows = 0;
    std::vector<std::string_view> cells;
    while (true) {
      if (row == batch.size()) {
        if (!lines.next_batch(batch)) break;
        row = 0;
      }
      const std::string_view text = batch[row].text;
      const std::size_t line_no = batch[row].number;
      ++row;
      if (!shape.split(text, line_no, cells)) continue;
      measure::KpiRecord k;
      schema::decode_row(schema::kKpis, cells, line_no, k);
      if (k.carrier != options.carrier) continue;
      ++rows;
      Accumulator& acc = by_t[k.t];
      if (k.direction == radio::Direction::Downlink) {
        acc.dl_sum += k.throughput;
        ++acc.dl_n;
      } else {
        acc.ul_sum += k.throughput;
        ++acc.ul_n;
      }
      acc.tech = k.tech;
    }
    if (rows == 0) {
      throw std::runtime_error{
          "paper tables: no KPI rows for carrier " +
          std::string{measure::names::to_name(options.carrier)}};
    }

    RunEmitter out{sink};
    for (const auto& [t, acc] : by_t) {
      TracePoint p;
      p.t = t;
      p.cap_dl_mbps = acc.dl_n > 0
                          ? acc.dl_sum / static_cast<double>(acc.dl_n)
                          : 0.0;
      p.cap_ul_mbps = acc.ul_n > 0
                          ? acc.ul_sum / static_cast<double>(acc.ul_n)
                          : 0.0;
      p.rtt_ms = options.default_rtt_ms;
      p.tech = acc.tech;
      out.push(p);
    }
    out.finish();
  }
};

std::map<SimMillis, double> load_rtt_map(std::istream& rtts,
                                         radio::Carrier carrier) {
  const std::vector<measure::RttRecord> records = measure::read_rtts_csv(rtts);
  // (t -> rtt) for this carrier; read_rtts_csv does not require ordering,
  // the map provides it.
  std::map<SimMillis, double> by_t;
  for (const measure::RttRecord& r : records) {
    if (r.carrier == carrier) by_t[r.t] = r.rtt;
  }
  return by_t;
}

void overlay_rtt(const std::map<SimMillis, double>& by_t, TracePoint& p) {
  auto it = by_t.upper_bound(p.t);
  if (it == by_t.begin()) return;  // before the first sample: keep fill
  p.rtt_ms = std::prev(it)->second;
}

class PaperRttOverlay final : public PointSink {
 public:
  PaperRttOverlay(std::istream& rtts, radio::Carrier carrier,
                  PointSink& inner)
      : by_t_(load_rtt_map(rtts, carrier)), inner_(inner) {}

  void on_run(std::span<const TracePoint> run) override {
    if (by_t_.empty()) {
      inner_.on_run(run);
      return;
    }
    scratch_.assign(run.begin(), run.end());
    for (TracePoint& p : scratch_) overlay_rtt(by_t_, p);
    inner_.on_run(std::span<const TracePoint>{scratch_.data(),
                                              scratch_.size()});
  }

  void finish() override { inner_.finish(); }

 private:
  std::map<SimMillis, double> by_t_;
  PointSink& inner_;
  std::vector<TracePoint> scratch_;
};

}  // namespace

std::unique_ptr<TraceAdapter> make_paper_tables_adapter() {
  return std::make_unique<PaperTablesAdapter>();
}

void attach_paper_rtts(CanonicalTrace& trace, std::istream& rtts,
                       radio::Carrier carrier) {
  const std::map<SimMillis, double> by_t = load_rtt_map(rtts, carrier);
  if (by_t.empty()) return;
  for (TracePoint& p : trace.points) overlay_rtt(by_t, p);
}

std::unique_ptr<PointSink> make_paper_rtt_overlay(std::istream& rtts,
                                                  radio::Carrier carrier,
                                                  PointSink& inner) {
  return std::make_unique<PaperRttOverlay>(rtts, carrier, inner);
}

}  // namespace wheels::ingest
