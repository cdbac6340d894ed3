#include "workloads.hpp"

#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <string_view>
#include <vector>

#include "campaign/campaign.hpp"
#include "export/exporter.hpp"
#include "export/roundtrip.hpp"
#include "export/timeline.hpp"
#include "ingest/ingest.hpp"
#include "measure/csv_export.hpp"
#include "measure/validate.hpp"
#include "replay/fleet.hpp"
#include "replay/ingest.hpp"
#include "synth/fit.hpp"
#include "synth/sample.hpp"
#include "tracegen.hpp"

namespace wheelsbench {

namespace fs = std::filesystem;
using namespace wheels;

void Ctx::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    std::cerr << "wheelsbench: output check failed: " << what << '\n';
  }
}

namespace {

/// Order-sensitive digest of a byte stream fed in pieces.
class Digest {
 public:
  void add(std::string_view bytes) {
    h_ = h_ * 1099511628211ULL ^ std::hash<std::string_view>{}(bytes);
  }
  std::string str() const { return std::to_string(h_); }

 private:
  std::uint64_t h_ = 14695981039346656037ULL;
};

/// Digest every file of a bundle directory except manifest.json (its
/// threads and start time legitimately differ), in name order.
std::string digest_bundle(const std::string& dir) {
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator{dir}) {
    if (entry.path().filename() != "manifest.json") {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  Digest d;
  std::string chunk(1 << 20, '\0');
  for (const fs::path& f : files) {
    d.add(f.filename().string());
    std::ifstream in{f, std::ios::binary};
    while (in.read(chunk.data(), static_cast<std::streamsize>(chunk.size())) ||
           in.gcount() > 0) {
      d.add({chunk.data(), static_cast<std::size_t>(in.gcount())});
    }
  }
  return d.str();
}

std::uint64_t dir_bytes(const std::string& dir) {
  std::uint64_t bytes = 0;
  for (const auto& entry : fs::directory_iterator{dir}) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return bytes;
}

std::uint64_t db_rows(const measure::ConsolidatedDb& db) {
  std::uint64_t rows = db.tests.size() + db.kpis.size() + db.rtts.size() +
                       db.handovers.size() + db.app_runs.size() +
                       db.link_ticks.size() + db.cell_load.size();
  for (std::size_t c = 0; c < radio::kCarrierCount; ++c) {
    rows += db.passive[c].segments.size() + db.active_coverage[c].size();
  }
  return rows;
}

/// Approximate heap footprint of a database: record arrays plus the
/// unique-cell sets (about 40 bytes per tree node).
double db_mem_mb(const measure::ConsolidatedDb& db) {
  double bytes = 0.0;
  const auto vec = [&bytes](const auto& v) {
    bytes += static_cast<double>(v.size() * sizeof(v[0]));
  };
  vec(db.tests);
  vec(db.kpis);
  vec(db.rtts);
  vec(db.handovers);
  vec(db.app_runs);
  vec(db.link_ticks);
  vec(db.cell_load);
  for (std::size_t c = 0; c < radio::kCarrierCount; ++c) {
    vec(db.passive[c].segments);
    vec(db.active_coverage[c]);
    bytes += 40.0 * static_cast<double>(db.passive[c].cells.size() +
                                        db.active_cells[c].size());
  }
  return bytes / 1e6;
}

void check_valid(Ctx& ctx, const measure::ConsolidatedDb& db,
                 const std::string& what) {
  const auto violations =
      ctx.call("measure.validate", [&] { return measure::validate(db); });
  ctx.check(violations.empty(),
            what + " passes measure::validate" +
                (violations.empty() ? "" : ": " + violations.front()));
}

campaign::CampaignConfig campaign_config(const Ctx& ctx, double scale,
                                         int threads) {
  campaign::CampaignConfig cfg;  // apps and static baselines on by default
  cfg.seed = ctx.opt.seed;
  cfg.scale = scale;
  cfg.threads = threads;
  return cfg;
}

// drive: the campaign over a fifth of the trip, written out and validated,
// at T threads and at one. Set-up is a small warm-up run of the same
// pipeline, so lazy initialisation and allocator growth are paid before
// timing.
class Drive final : public Workload {
 public:
  void setup(Ctx& ctx) override {
    const auto cfg = campaign_config(ctx, ctx.opt.smoke ? 0.002 : 0.05,
                                     ctx.opt.threads);
    const measure::ConsolidatedDb db = campaign::DriveCampaign{cfg}.run();
    measure::write_dataset(db, ctx.opt.work_dir + "/warmup",
                           campaign::make_manifest(cfg));
  }

  void pipeline(Ctx& ctx, int threads) override {
    const auto cfg =
        campaign_config(ctx, ctx.opt.smoke ? 0.01 : kScale, threads);
    dir_ = ctx.opt.work_dir + "/bundle_t" + std::to_string(threads);
    const measure::ConsolidatedDb db = ctx.call(
        "campaign", [&] { return campaign::DriveCampaign{cfg}.run(); });
    ctx.call("measure.write", [&] {
      measure::write_dataset(db, dir_, campaign::make_manifest(cfg));
    });
    check_valid(ctx, db, "campaign database");
    ctx.notes["measure.rows"] = static_cast<double>(db_rows(db));
    ctx.notes["measure.bytes_written"] = static_cast<double>(dir_bytes(dir_));
    ctx.facts["db_mem_mb"] = db_mem_mb(db);
  }

  std::string outputs(Ctx&) override {
    std::string digest = digest_bundle(dir_);
    fs::remove_all(dir_);
    return digest;
  }

 private:
  /// A fifth of the trip, so that a run holds five passes or more; a
  /// full-scale pass takes about 19 s. See README.md for the measurements.
  static constexpr double kScale = 0.2;

  std::string dir_;
};

// replay: a recorded bundle read back and replayed over a 2x2 knob grid
// (cc {recorded, bbr} x server {recorded, edge}) with the fleet's default
// 300 bootstrap iterations.
class Replay final : public Workload {
 public:
  void setup(Ctx& ctx) override {
    // Recorded at 1 thread: the bundle is the same at any thread count, and
    // set-up time then does not depend on what else shares the host.
    const auto cfg = campaign_config(ctx, ctx.opt.smoke ? 0.005 : kScale, 1);
    const measure::ConsolidatedDb db = campaign::DriveCampaign{cfg}.run();
    bundle_dir_ = ctx.opt.work_dir + "/bundle";
    measure::write_dataset(db, bundle_dir_, campaign::make_manifest(cfg));
    ctx.facts["bundle_scale"] = cfg.scale;
    ctx.facts["bundle_bytes"] = static_cast<double>(dir_bytes(bundle_dir_));
    ctx.facts["bundle_mem_mb"] = db_mem_mb(db);
  }

  void pipeline(Ctx& ctx, int threads) override {
    const replay::ReplayBundle bundle = ctx.call(
        "replay.read", [&] { return replay::read_dataset(bundle_dir_); });
    ctx.notes["replay.bytes_read"] = ctx.facts["bundle_bytes"];

    replay::FleetConfig fc;
    fc.replay.seed = ctx.opt.seed;
    fc.threads = threads;
    replay::apply_grid_axis(fc.grid, "cc=recorded,bbr");
    replay::apply_grid_axis(fc.grid, "server=recorded,edge");
    const replay::ReplayFleet fleet{fc};
    result_ = ctx.call("replay.fleet", [&] {
      return fleet.run({replay::FleetItem{"recorded", &bundle}});
    });

    ctx.check(fleet.cells().size() == 4 && result_.runs.size() == 4 &&
                  result_.aggregate.size() == 4,
              "fleet has grid x bundle = 4 runs");
    bool finite = true;
    double draws = 0.0;
    const auto iterations = static_cast<double>(fc.ci_iterations);
    for (const replay::CellAggregate& cell : result_.aggregate) {
      for (std::size_t c = 0; c < radio::kCarrierCount; ++c) {
        for (std::size_t m = 0; m < replay::kFleetMetricCount; ++m) {
          const replay::MetricAggregate& a = cell.metrics[c][m];
          if (a.n == 0) continue;
          finite = finite && std::isfinite(a.median) &&
                   std::isfinite(a.ci.lo) && std::isfinite(a.ci.hi);
          draws += iterations * static_cast<double>(a.n);
          if (a.has_delta) {
            const std::size_t base = result_.aggregate.front().metrics[c][m].n;
            draws += iterations * static_cast<double>(a.n + base);
          }
        }
      }
    }
    ctx.check(finite, "fleet aggregates are finite");
    ctx.notes["analysis.resample_draws"] = draws;
  }

  std::string outputs(Ctx&) override {
    std::ostringstream os;
    replay::write_fleet_csv(os, result_);
    result_ = {};
    Digest d;
    d.add(os.str());
    return d.str();
  }

 private:
  /// Keeps one pass in the seconds range; see README.md for the sizing.
  static constexpr double kScale = 0.05;

  std::string bundle_dir_;
  replay::FleetResult result_;
};

// trace_io: three generated external traces ingested, fitted, resampled and
// exported to emulator schedules, with every exporter's output checked.
class TraceIo final : public Workload {
 public:
  void setup(Ctx& ctx) override {
    files_ = generate_traces(ctx.opt.work_dir + "/traces", ctx.opt.seed,
                             ctx.opt.smoke ? 60.0 : kTraceSeconds);
    const auto bytes = [](std::uint64_t b) { return static_cast<double>(b); };
    ctx.facts["input_mahimahi_bytes"] = bytes(files_.mahimahi_bytes);
    ctx.facts["input_errant_bytes"] = bytes(files_.errant_bytes);
    ctx.facts["input_minimal_bytes"] = bytes(files_.minimal_bytes);
    ctx.facts["input_total_mib"] =
        static_cast<double>(files_.total_bytes()) / (1024.0 * 1024.0);
  }

  void pipeline(Ctx& ctx, int threads) override {
    digest_ = {};
    ingest::IngestOptions io;
    io.threads = threads;
    io.mahimahi_uplink_path = files_.mahimahi_up;
    const std::vector<ingest::JoinEntry> entries{
        {radio::Carrier::Verizon, files_.mahimahi_down},
        {radio::Carrier::TMobile, files_.errant},
        {radio::Carrier::Att, files_.minimal}};
    const replay::ReplayBundle joined = ctx.call("ingest.join", [&] {
      return ingest::ingest_join("auto", entries, io, ingest::JoinOptions{});
    });
    ctx.notes["ingest.input_bytes"] = static_cast<double>(files_.total_bytes());
    check_valid(ctx, joined.db, "ingested bundle");
    digest_.add(joined.manifest.config_digest);

    const synth::SynthProfile profile =
        ctx.call("synth.fit", [&] { return synth::fit_profile(joined); });
    synth::ScenarioSpec spec;
    spec.duration_s = kSessionTicks * 0.5;
    const replay::ReplayBundle sampled = ctx.call("synth.sample", [&] {
      return synth::sample_bundle(profile, spec, ctx.opt.seed, 0, kCycles,
                                  threads);
    });
    check_valid(ctx, sampled.db, "sampled bundle");
    digest_.add(sampled.manifest.config_digest);

    // Export the first emulator session of each ingested carrier: the
    // generator gives every session its carrier's fitted mean rates, so the
    // export work does not depend on the seed.
    const emu::ExporterRegistry& exporters = emu::builtin_exporter_registry();
    double bytes_out = 0.0;
    for (const radio::Carrier carrier : radio::kAllCarriers) {
      emu::EmuTimeline window = ctx.call("export.timeline", [&] {
        return emu::timeline_from_bundle(joined.db, carrier);
      });
      window.ticks.resize(std::min(window.ticks.size(), kSessionTicks));
      std::string json;
      for (const char* backend : {"mahimahi", "netem", "json"}) {
        const std::string layer = std::string{"export."} + backend;
        const auto artifacts = ctx.call(layer.c_str(), [&] {
          return exporters.resolve(backend).render(window);
        });
        for (const emu::ExportArtifact& a : artifacts) {
          bytes_out += static_cast<double>(a.content.size());
          digest_.add(a.content);
        }
        if (layer == "export.json") json = artifacts.front().content;
      }
      const emu::EmuTimeline parsed = ctx.call(
          "export.json_parse", [&] { return emu::parse_schedule_json(json); });
      ctx.check(same_schedule(parsed, window),
                "JSON schedule parses back bit-exact");
      const emu::RoundTripReport trip = ctx.call(
          "export.roundtrip",
          [&] { return emu::verify_mahimahi_roundtrip(window); });
      ctx.check(trip.ok(), "mahimahi round trip within 1/2 opportunity");
    }
    ctx.notes["export.bytes_out"] = bytes_out;
  }

  std::string outputs(Ctx&) override { return digest_.str(); }

 private:
  /// An hour of trace: about 119 MiB in total at the fitted rates, above
  /// the 105 MiB L3.
  static constexpr double kTraceSeconds = 3600.0;
  /// One emulator session: 5 minutes of 500 ms ticks. Rendering and the
  /// round trip cost about 0.08 s per session on a 4-core Xeon.
  static constexpr std::size_t kSessionTicks = 600;
  /// Synthesised drive cycles, each one session long.
  static constexpr int kCycles = 8;

  static bool same_schedule(const emu::EmuTimeline& a,
                            const emu::EmuTimeline& b) {
    if (a.tick_ms != b.tick_ms || a.ticks.size() != b.ticks.size()) {
      return false;
    }
    for (std::size_t i = 0; i < a.ticks.size(); ++i) {
      const emu::EmuTick& x = a.ticks[i];
      const emu::EmuTick& y = b.ticks[i];
      if (x.cap_dl_mbps != y.cap_dl_mbps || x.cap_ul_mbps != y.cap_ul_mbps ||
          x.rtt_ms != y.rtt_ms ||
          x.loss != y.loss || x.tech != y.tech) {
        return false;
      }
    }
    return true;
  }

  TraceFiles files_;
  Digest digest_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "drive") return std::make_unique<Drive>();
  if (name == "replay") return std::make_unique<Replay>();
  if (name == "trace_io") return std::make_unique<TraceIo>();
  return nullptr;
}

}  // namespace wheelsbench
