// wheelsbench: the end-to-end benchmark program. Normally run through
// run.py, which builds it and adds host facts; see README.md.
//
//   wheelsbench --workload drive|replay|trace_io --seed N --seconds S
//               --trace 0|1 --threads T --work DIR [--smoke] [--break-check]
//
// --trace 0: set up five times, then run passes (the pipeline at T threads,
// then at one, outputs compared; each pass in a forked process of its own)
// for S seconds, at least five; print the end-to-end metrics. --trace 1: set
// up once, run three untraced and three traced pipelines at T, interleaved,
// plus a traced one at 1 thread; print the per-layer metrics. Prints a
// {"facts": ...} line, then the result object as the last line.
#include <fcntl.h>
#include <malloc.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/obs/metrics.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace {

using namespace wheelsbench;
namespace obs = wheels::core::obs;
using Counters = std::map<std::string, std::uint64_t>;
using Clock = std::chrono::steady_clock;

/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetups = 5;
/// Passes per untraced run at least, so that every median has five samples.
constexpr std::size_t kMinPasses = 5;
/// Untraced and traced pipelines per traced run; trace.overhead_s is the
/// median of their paired differences.
constexpr int kTracedPairs = 3;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // ru_maxrss: KiB
}

Counters counters() {
  Counters out;
  const auto snapshot = obs::MetricsRegistry::global().snapshot();
  for (const auto& [name, value] : snapshot.counters) out[name] = value;
  return out;
}

Counters delta(const Counters& before, const Counters& after) {
  Counters out;
  for (const auto& [name, value] : after) {
    const auto it = before.find(name);
    out[name] = value - (it == before.end() ? 0 : it->second);
  }
  return out;
}

/// The deterministic part of a counter delta (runtime "rt." names dropped).
Counters exact(const Counters& c) {
  Counters out;
  for (const auto& [name, value] : c) {
    if (!obs::is_runtime_metric(name) && value != 0) out[name] = value;
  }
  return out;
}

std::string num(double v) {
  char buf[32];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string{buf, r.ptr};
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (const Metric& m : metrics) {
    if (out.size() > 1) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + num(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  return out + "}";
}

/// One pipeline run at `threads`: its wall time and its output digest. An
/// exception counts the run's current call failed and yields no digest.
struct Run {
  double wall_s = 0.0;
  std::string digest;
  Counters counts;
};

Run run_pipeline(Ctx& ctx, Workload& w, int threads) {
  Run r;
  ctx.notes.clear();
  const Counters before = counters();
  const auto t0 = Clock::now();
  try {
    w.pipeline(ctx, threads);
    r.wall_s = since(t0);
    r.digest = w.outputs(ctx);
  } catch (const std::exception& e) {
    r.wall_s = since(t0);
    ++ctx.failed;
    std::cerr << "wheelsbench: pipeline at " << threads
              << " threads failed: " << e.what() << '\n';
  }
  r.counts = delta(before, counters());
  return r;
}

/// A pass: the pipeline at T threads, then at 1, in a process of its own.
/// A pass whose process died has no runs.
struct Pass {
  bool ok = false;
  Run at_t;
  Run at_1;
  double peak_rss_mb = 0.0;
};

void put_run(std::ostream& os, const Run& r) {
  os << num(r.wall_s) << ' ' << (r.digest.empty() ? "-" : r.digest) << ' '
     << r.counts.size();
  for (const auto& [name, value] : r.counts) os << ' ' << name << ' ' << value;
  os << '\n';
}

Run get_run(std::istream& is) {
  Run r;
  std::size_t n = 0;
  is >> r.wall_s >> r.digest >> n;
  if (r.digest == "-") r.digest.clear();
  for (std::size_t i = 0; i < n; ++i) {
    std::string name;
    is >> name >> r.counts[name];
  }
  return r;
}

/// Run one pass in a forked child, so that its peak memory is its own and
/// no pass starts from another's heap. The child reports its runs, its
/// operation counts and its facts through a pipe; the parent has no other
/// threads at that point, so the fork is safe. A child that dies (a signal,
/// a non-zero exit or a malformed report) counts as one failed operation.
Pass run_pass(Ctx& ctx, Workload& w) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error{"pipe() failed"};
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error{"fork() failed"};
  if (pid == 0) {
    // The child must never return into the parent's loop.
    try {
      ::close(fds[0]);
      ctx.attempted = ctx.failed = 0;
      std::ostringstream os;
      put_run(os, run_pipeline(ctx, w, ctx.opt.threads));
      put_run(os, run_pipeline(ctx, w, 1));
      os << ctx.attempted << ' ' << ctx.failed << ' ' << ctx.facts.size();
      for (const auto& [name, value] : ctx.facts) {
        os << ' ' << name << ' ' << num(value);
      }
      const std::string text = os.str();
      for (std::size_t sent = 0; sent < text.size();) {
        const ssize_t n =
            ::write(fds[1], text.data() + sent, text.size() - sent);
        if (n <= 0) ::_exit(1);
        sent += static_cast<std::size_t>(n);
      }
    } catch (...) {
      ::_exit(1);
    }
    ::_exit(0);
  }
  ::close(fds[1]);
  std::string text;
  char buf[4096];
  for (ssize_t n; (n = ::read(fds[0], buf, sizeof buf)) > 0;) {
    text.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  int status = 0;
  rusage ru{};
  Pass pass;
  if (::wait4(pid, &status, 0, &ru) != pid) {
    throw std::runtime_error{"wait4() failed"};
  }
  std::istringstream is{text};
  pass.at_t = get_run(is);
  pass.at_1 = get_run(is);
  std::uint64_t attempted = 0, failed = 0;
  std::size_t nfacts = 0;
  is >> attempted >> failed >> nfacts;
  std::map<std::string, double> facts;
  for (std::size_t i = 0; i < nfacts; ++i) {
    std::string name;
    is >> name >> facts[name];
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || !is) {
    const std::string how =
        WIFSIGNALED(status) ? "signal " + std::to_string(WTERMSIG(status))
        : WIFEXITED(status) ? "exit " + std::to_string(WEXITSTATUS(status))
                            : "status " + std::to_string(status);
    ctx.check(false, "pass process ends normally (" + how + ")");
    return pass;
  }
  ctx.attempted += attempted;
  ctx.failed += failed;
  for (const auto& [name, value] : facts) ctx.facts[name] = value;
  pass.ok = true;
  pass.peak_rss_mb = static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;
  return pass;
}

/// A later pass at the same thread count repeats `ref` exactly.
void check_repeat(Ctx& ctx, const Run& run, const Run& ref) {
  ctx.check(exact(run.counts) == exact(ref.counts),
            "counts repeat exactly across passes");
  ctx.check(!run.digest.empty() && run.digest == ref.digest,
            "outputs repeat across passes");
}

/// The pipeline's outputs do not depend on its thread count.
void check_threads(Ctx& ctx, const Run& at_t, const Run& at_1) {
  std::string expected = at_1.digest;
  if (ctx.opt.break_check) expected += "!";  // the deliberately failed check
  ctx.check(!at_t.digest.empty() && at_t.digest == expected,
            "outputs at T threads equal outputs at 1 thread");
}

/// Write every file under `dir` through to disk, so that later timing does
/// not share the host with the writeback of earlier set-ups.
void sync_tree(const std::string& dir) {
  for (const auto& entry : std::filesystem::recursive_directory_iterator{dir}) {
    if (!entry.is_regular_file()) continue;
    const int fd = ::open(entry.path().c_str(), O_RDONLY);
    if (fd < 0) continue;
    ::fdatasync(fd);
    ::close(fd);
  }
}

/// Set up from an empty work directory; clearing and syncing are not timed.
double timed_setup(Ctx& ctx, Workload& w) {
  std::filesystem::remove_all(ctx.opt.work_dir);
  std::filesystem::create_directories(ctx.opt.work_dir);
  const auto t0 = Clock::now();
  w.setup(ctx);
  const double seconds = since(t0);
  sync_tree(ctx.opt.work_dir);
  return seconds;
}

std::vector<Metric> timed_run(Ctx& ctx, Workload& w) {
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    setup_s.push_back(timed_setup(ctx, w));
    std::cerr << "wheelsbench: setup " << i + 1 << ": " << setup_s.back()
              << " s\n";
  }
  malloc_trim(0);  // passes inherit the set-up's heap; keep it small
  ctx.facts["setup_peak_rss_mb"] = peak_rss_mb();
  ctx.facts["setup_samples"] = static_cast<double>(setup_s.size());

  std::vector<double> wall_t, wall_1, peak;
  std::optional<Pass> first;
  std::size_t passes = 0;
  const auto t0 = Clock::now();
  while (passes < kMinPasses || since(t0) < ctx.opt.seconds) {
    const Pass pass = run_pass(ctx, w);
    ++passes;
    if (!pass.ok) {
      std::cerr << "wheelsbench: pass " << passes << ": process died\n";
      continue;
    }
    std::cerr << "wheelsbench: pass " << passes
              << ": wall_s=" << pass.at_t.wall_s
              << " wall_1t_s=" << pass.at_1.wall_s
              << " peak_rss_mb=" << pass.peak_rss_mb << '\n';
    wall_t.push_back(pass.at_t.wall_s);
    wall_1.push_back(pass.at_1.wall_s);
    peak.push_back(pass.peak_rss_mb);
    if (!first) {
      first = pass;
    } else {
      check_repeat(ctx, pass.at_t, first->at_t);
      check_repeat(ctx, pass.at_1, first->at_1);
    }
    check_threads(ctx, pass.at_t, pass.at_1);
  }
  if (wall_t.empty()) throw std::runtime_error{"no pass completed"};
  ctx.facts["passes"] = static_cast<double>(wall_t.size());
  return {{"setup_s", median(setup_s), "s"},
          {"wall_s", median(wall_t), "s"},
          {"wall_1t_s", median(wall_1), "s"},
          {"peak_rss_mb", median(peak), "MB"}};
}

std::vector<Metric> traced_run(Ctx& ctx, Workload& w) {
  timed_setup(ctx, w);
  obs::TraceCollector& lib = obs::TraceCollector::global();
  const auto set_tracing = [&](bool on) {
    lib.set_enabled(on);
    ctx.own.set_enabled(on);
  };

  // Untraced and traced pipelines at T, interleaved. The spans kept are
  // those of the last traced one, which the traced 1-thread run joins.
  std::vector<Run> untraced, traced;
  std::vector<double> overhead;
  for (int i = 0; i < kTracedPairs; ++i) {
    untraced.push_back(run_pipeline(ctx, w, ctx.opt.threads));
    lib.clear();
    ctx.own.clear();
    set_tracing(true);
    {
      obs::ScopedSpan root{"pipeline", "wheelsbench", ctx.own};
      traced.push_back(run_pipeline(ctx, w, ctx.opt.threads));
    }
    set_tracing(false);
    overhead.push_back(traced.back().wall_s - untraced.back().wall_s);
  }
  const auto notes = ctx.notes;
  Run traced_1t;
  set_tracing(true);
  {
    obs::ScopedSpan root{"pipeline.1t", "wheelsbench", ctx.own};
    traced_1t = run_pipeline(ctx, w, 1);
  }
  set_tracing(false);
  for (int i = 0; i < kTracedPairs; ++i) {
    if (i > 0) check_repeat(ctx, untraced[i], untraced.front());
    check_repeat(ctx, traced[i], untraced.front());
  }
  check_threads(ctx, traced.back(), traced_1t);
  const Run& last = traced.back();

  std::vector<Span> spans = read_spans(ctx.own, true);
  std::vector<Span> lib_spans = read_spans(lib, false);
  spans.insert(spans.end(), lib_spans.begin(), lib_spans.end());
  ctx.facts["trace_spans"] = static_cast<double>(spans.size());
  const SpanTree tree{std::move(spans), obs::trace_thread_id()};
  const int root = tree.own_root("pipeline");
  const int root_1t = tree.own_root("pipeline.1t");
  if (root < 0 || root_1t < 0) throw std::logic_error{"root spans missing"};
  const Span& top = tree.spans()[static_cast<std::size_t>(root)];

  const auto own = [&](std::string_view name) {
    return tree.own_total_s(root, name);
  };
  const auto self = [&](std::string_view name) {
    return tree.library_self_s(root, name);
  };
  const auto count = [&](const std::string& name) {
    const auto it = last.counts.find(name);
    return it == last.counts.end() ? 0.0 : static_cast<double>(it->second);
  };
  const auto note = [&](const std::string& name) {
    const auto it = notes.find(name);
    return it == notes.end() ? 0.0 : it->second;
  };
  const auto rate = [](double amount, double seconds) {
    return seconds > 0.0 ? amount / seconds : 0.0;
  };

  std::vector<Metric> m;
  for (const char* c : {"pool.tasks_run", "pool.batches", "rt.pool.steals"}) {
    m.push_back({c, count(c), "count"});
  }
  m.push_back({"campaign.run_s", own("campaign"), "s"});
  m.push_back(
      {"campaign.run_1t_s", tree.own_total_s(root_1t, "campaign"), "s"});
  m.push_back({"campaign.coordinator_s", self("campaign.run"), "s"});
  for (const char* s : {"bulk_dl", "bulk_ul", "rtt", "offload_ar",
                        "offload_cav", "video", "gaming", "static_battery"}) {
    m.push_back({std::string{"campaign."} + s + "_s",
                 self(std::string{"campaign."} + s), "s"});
  }
  for (const char* c : {"campaign.tests", "campaign.cycles",
                        "ran.handover.attempts", "ran.handover.vertical",
                        "ran.rrc.promotions", "transport.retransmits",
                        "transport.cwnd_resets"}) {
    m.push_back({c, count(c), "count"});
  }
  const double write_s = own("measure.write");
  m.push_back({"measure.write_s", write_s, "s"});
  m.push_back({"measure.write_mb_per_s",
               rate(note("measure.bytes_written") / 1e6, write_s), "MB/s"});
  m.push_back({"measure.bytes_written", note("measure.bytes_written"), "B"});
  m.push_back({"measure.rows", note("measure.rows"), "count"});
  m.push_back({"measure.validate_s", own("measure.validate"), "s"});
  const double read_s = own("replay.read");
  m.push_back({"replay.read_s", read_s, "s"});
  m.push_back({"replay.read_mb_per_s",
               rate(note("replay.bytes_read") / 1e6, read_s), "MB/s"});
  m.push_back({"replay.fleet_s", self("replay.fleet.item"), "s"});
  m.push_back({"replay.run_s", self("replay.run"), "s"});
  for (const char* c :
       {"replay.kpi_ticks", "replay.app_runs", "replay.fleet.runs"}) {
    m.push_back({c, count(c), "count"});
  }
  m.push_back({"analysis.bootstrap_s", self("replay.fleet.run"), "s"});
  m.push_back({"analysis.resample_draws", note("analysis.resample_draws"),
               "count"});
  const double join_s = own("ingest.join");
  m.push_back({"ingest.join_s", join_s, "s"});
  m.push_back({"ingest.mb_per_s",
               rate(note("ingest.input_bytes") / 1e6, join_s), "MB/s"});
  m.push_back({"ingest.bytes_read", count("ingest.bytes_read"), "B"});
  m.push_back({"ingest.rows_emitted", count("ingest.rows_emitted"), "count"});
  m.push_back({"ingest.chunks", count("ingest.chunks"), "count"});
  m.push_back({"ingest.arena_bytes", count("ingest.arena_bytes"), "B"});
  const double sample_s = own("synth.sample");
  m.push_back({"synth.fit_s", own("synth.fit"), "s"});
  m.push_back({"synth.sample_s", sample_s, "s"});
  m.push_back({"synth.points_per_s",
               rate(count("synth.points_sampled"), sample_s), "1/s"});
  m.push_back({"synth.points_sampled", count("synth.points_sampled"), "count"});
  m.push_back({"synth.regimes", count("synth.regimes"), "count"});
  for (const char* s : {"timeline", "mahimahi", "netem", "json", "json_parse",
                        "roundtrip"}) {
    m.push_back({std::string{"export."} + s + "_s",
                 own(std::string{"export."} + s), "s"});
  }
  m.push_back({"export.bytes_out", note("export.bytes_out"), "B"});
  m.push_back({"trace.overhead_s", median(overhead), "s"});
  const double unattributed =
      static_cast<double>(top.self_us) /
      static_cast<double>(std::max<std::int64_t>(1, top.dur_us));
  m.push_back({"trace.attributed_share", 1.0 - unattributed, "ratio"});
  const auto walls = [](const std::vector<Run>& runs) {
    std::vector<double> v;
    for (const Run& r : runs) v.push_back(r.wall_s);
    return median(v);
  };
  ctx.facts["wall_untraced_s"] = walls(untraced);
  ctx.facts["wall_traced_s"] = walls(traced);
  ctx.facts["overhead_samples"] = static_cast<double>(overhead.size());
  return m;
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "wheelsbench: " << why
            << "\nusage: wheelsbench --workload drive|replay|trace_io --seed N"
               " --seconds S --trace 0|1 --threads T --work DIR [--smoke]"
               " [--break-check]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  // A fixed mmap threshold turns off glibc's dynamic one, which otherwise
  // moves with the order of earlier frees and makes a pass's peak resident
  // memory depend on it; large blocks then go back to the system when freed.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  Options opt;
  bool have_seed = false, have_seconds = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) usage(arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--workload") opt.workload = value();
      else if (arg == "--seed") {
        opt.seed = std::stoull(value());
        have_seed = true;
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value());
        have_seconds = true;
      }
      else if (arg == "--trace") opt.trace = value() == "1";
      else if (arg == "--threads") opt.threads = std::stoi(value());
      else if (arg == "--work") opt.work_dir = value();
      else if (arg == "--smoke") opt.smoke = true;
      else if (arg == "--break-check") opt.break_check = true;
      else usage("unknown argument " + arg);
    }
  } catch (const std::exception&) {
    usage("malformed number");
  }
  const std::unique_ptr<Workload> workload = make_workload(opt.workload);
  if (!workload) usage("unknown workload '" + opt.workload + "'");
  if (!have_seed || !have_seconds || opt.work_dir.empty() || opt.threads < 1) {
    usage("--seed, --seconds, --work and --threads are required");
  }
  // Set-up clears what it works in; keep that to a directory of its own.
  opt.work_dir += "/data";

  Ctx ctx{opt};
  std::vector<Metric> metrics;
  try {
    metrics =
        opt.trace ? traced_run(ctx, *workload) : timed_run(ctx, *workload);
  } catch (const std::exception& e) {
    std::cerr << "wheelsbench: " << e.what() << '\n';
    return 1;
  }

  ctx.facts["threads"] = opt.threads;
  ctx.facts["failed_ratio"] =
      static_cast<double>(ctx.failed) /
      static_cast<double>(std::max<std::uint64_t>(1, ctx.attempted));
  std::string facts = "{\"facts\": {\"workload\": \"" + opt.workload +
                      "\", \"seed\": " + std::to_string(opt.seed) +
                      ", \"build_type\": \"" WHEELS_BUILD_TYPE
                      "\", \"compiler\": \"" WHEELS_CXX_COMPILER "\"";
  for (const auto& [name, value] : ctx.facts) {
    facts += ", \"" + name + "\": " + num(value);
  }
  std::cout << facts << "}}\n";
  std::cout << "{\"correct\": " << (ctx.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << ctx.attempted
            << ", \"failed\": " << ctx.failed
            << ", \"metrics\": " << metrics_json(metrics) << "}\n";
  return 0;
}
