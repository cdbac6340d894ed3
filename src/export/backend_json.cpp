// Versioned JSON schedule backend (CloudEmu-style): the machine-readable
// interchange form of an EmuTimeline.
//
// One tick object per line, doubles at max_digits10 (measure::csv_double),
// so render ∘ parse is bit-exact — the same contract synth profiles keep —
// and parse errors cite the 1-based line of the offending token through
// core::json::Doc. Version 1 is the only version; a reader meeting a
// future version fails loudly instead of guessing.
#include <cmath>
#include <string>

#include "core/json.hpp"
#include "export/exporter.hpp"
#include "measure/csv_export.hpp"
#include "measure/enum_names.hpp"

namespace wheels::emu {

namespace {

std::string render_schedule(const EmuTimeline& tl) {
  std::string out;
  out += "{\n";
  out += "  \"version\": 1,\n";
  out += "  \"tick_ms\": " + std::to_string(tl.tick_ms) + ",\n";
  out += "  \"start_ms\": " + std::to_string(tl.start_ms) + ",\n";
  out += "  \"ticks\": [\n";
  for (std::size_t i = 0; i < tl.ticks.size(); ++i) {
    const EmuTick& t = tl.ticks[i];
    out += "    {\"cap_dl_mbps\": " + measure::csv_double(t.cap_dl_mbps) +
           ", \"cap_ul_mbps\": " + measure::csv_double(t.cap_ul_mbps) +
           ", \"rtt_ms\": " + measure::csv_double(t.rtt_ms) +
           ", \"loss\": " + measure::csv_double(t.loss) + ", \"tech\": \"" +
           core::json::escape(measure::names::to_name(t.tech)) + "\"}";
    out += i + 1 < tl.ticks.size() ? ",\n" : "\n";
  }
  out += "  ]\n";
  out += "}\n";
  return out;
}

class JsonExporter final : public EmuExporter {
 public:
  std::string_view name() const override { return "json"; }

  std::string_view description() const override {
    return "versioned JSON schedule (.json): one tick object per line, "
           "bit-exact under parse_schedule_json";
  }

  std::vector<ExportArtifact> render(
      const EmuTimeline& timeline) const override {
    validate_timeline(timeline);
    return {{".json", render_schedule(timeline)}};
  }
};

}  // namespace

std::unique_ptr<EmuExporter> make_json_exporter() {
  return std::make_unique<JsonExporter>();
}

EmuTimeline parse_schedule_json(std::string_view text) {
  const core::json::Doc doc{"schedule"};
  const core::json::Value root = doc.parse(text);
  doc.as(root, core::json::Value::Kind::Object, "an object");

  const std::int64_t version = doc.i64(doc.get(root, "version"), "version");
  if (version != 1) {
    doc.fail(doc.get(root, "version").line,
             "unsupported schedule version " + std::to_string(version) +
                 " (expected 1)");
  }

  EmuTimeline tl;
  const std::int64_t tick = doc.i64(doc.get(root, "tick_ms"), "tick_ms");
  if (tick <= 0) {
    doc.fail(doc.get(root, "tick_ms").line, "tick_ms must be > 0");
  }
  tl.tick_ms = tick;
  if (const core::json::Value* start = doc.find(root, "start_ms")) {
    tl.start_ms = doc.i64(*start, "start_ms");
  }

  const core::json::Value& ticks = doc.as(
      doc.get(root, "ticks"), core::json::Value::Kind::Array, "an array");
  if (ticks.items.empty()) {
    doc.fail(ticks.line, "ticks must not be empty");
  }
  tl.ticks.reserve(ticks.items.size());
  for (const core::json::Value& item : ticks.items) {
    doc.as(item, core::json::Value::Kind::Object, "a tick object");
    EmuTick t;
    t.cap_dl_mbps = doc.num(item, "cap_dl_mbps");
    t.cap_ul_mbps = doc.num(item, "cap_ul_mbps");
    t.rtt_ms = doc.num(item, "rtt_ms");
    t.loss = doc.num(item, "loss");
    if (!std::isfinite(t.cap_dl_mbps) || t.cap_dl_mbps < 0.0) {
      doc.fail(doc.get(item, "cap_dl_mbps").line,
               "cap_dl_mbps must be finite and >= 0");
    }
    if (!std::isfinite(t.cap_ul_mbps) || t.cap_ul_mbps < 0.0) {
      doc.fail(doc.get(item, "cap_ul_mbps").line,
               "cap_ul_mbps must be finite and >= 0");
    }
    if (!std::isfinite(t.rtt_ms) || t.rtt_ms <= 0.0) {
      doc.fail(doc.get(item, "rtt_ms").line, "rtt_ms must be > 0");
    }
    if (!std::isfinite(t.loss) || t.loss < 0.0 || t.loss > 1.0) {
      doc.fail(doc.get(item, "loss").line, "loss must be in [0, 1]");
    }
    const core::json::Value& tech = doc.as(
        doc.get(item, "tech"), core::json::Value::Kind::String, "a string");
    try {
      t.tech = measure::names::parse_technology(tech.text);
    } catch (const std::runtime_error& e) {
      doc.fail(tech.line, e.what());
    }
    tl.ticks.push_back(t);
  }
  return tl;
}

}  // namespace wheels::emu
