// The benchmark's three workloads and the context their passes run in.
//
// A workload builds its inputs once per set-up and then runs its pipeline —
// the chain of public library calls a user of that path makes — once per
// thread count of a pass. Each public call runs under one of the
// benchmark's own spans (a no-op unless the traced run enabled the
// collector) and counts as one attempted operation; every output check
// counts as one more.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>

#include "core/obs/trace_export.hpp"

namespace wheelsbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  int threads = 1;  // T, the pass's thread count
  bool smoke = false;        // tiny inputs, for the benchmark's own test
  bool break_check = false;  // deliberately fail one output check
  std::string work_dir;
};

class Ctx {
 public:
  explicit Ctx(Options options) : opt(std::move(options)) {}

  const Options opt;
  /// The benchmark's own spans; enabled only for the traced pipelines.
  wheels::core::obs::TraceCollector own;
  /// Per-layer quantities the last pipeline run measured outside spans and
  /// counters (bytes, rows), keyed by metric name.
  std::map<std::string, double> notes;
  /// Input sizes and other facts reported beside the result.
  std::map<std::string, double> facts;

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Count one output check; a failed one is reported on stderr.
  void check(bool ok, const std::string& what);

  /// Run one public library call as an operation under the benchmark span
  /// `layer`. An exception propagates; the caller counts it failed.
  template <class F>
  decltype(auto) call(const char* layer, F&& f) {
    ++attempted;
    wheels::core::obs::ScopedSpan span{layer, "wheelsbench", own};
    return f();
  }
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Build the workload's inputs under ctx.opt.work_dir (untimed by passes).
  virtual void setup(Ctx& ctx) = 0;
  /// One run of the pipeline at `threads`: the timed part of a pass.
  virtual void pipeline(Ctx& ctx, int threads) = 0;
  /// A digest of what the last pipeline run produced, which must not
  /// depend on its thread count; releases those outputs. Untimed.
  virtual std::string outputs(Ctx& ctx) = 0;
};

/// "drive", "replay" or "trace_io"; nullptr for any other name.
std::unique_ptr<Workload> make_workload(const std::string& name);

}  // namespace wheelsbench
