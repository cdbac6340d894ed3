// Seeded generator of the external traces the trace_io workload ingests.
//
// The generator is the benchmark's own code, with its own splitmix64 stream,
// so the inputs a seed produces do not change when the library's RNG does.
// Its per-carrier link model (a chain over the carrier's techs with
// lognormal AR(1) rates and RTT per tech) is fitted to the driving ticks of
// the committed golden bundle by fit_tracegen.py. Each carrier's link is
// rendered into one of three formats the library's ingest adapters sniff:
//   - Verizon: a Mahimahi up/down pair (one line per 1500 B delivery
//     opportunity);
//   - T-Mobile: an ERRANT-style KPI log (kbps columns, 4G/4G+/5G names);
//   - AT&T: a `minimal`-column CSV (t_ms,cap_dl_mbps,cap_ul_mbps,rtt_ms,tech).
// The column formats carry one row per 500 ms tick, the bundle's KPI cadence.
#pragma once

#include <cstdint>
#include <string>

namespace wheelsbench {

struct TraceFiles {
  std::string mahimahi_down;
  std::string mahimahi_up;
  std::string errant;
  std::string minimal;
  std::uint64_t mahimahi_bytes = 0;  // down + up
  std::uint64_t errant_bytes = 0;
  std::uint64_t minimal_bytes = 0;

  std::uint64_t total_bytes() const {
    return mahimahi_bytes + errant_bytes + minimal_bytes;
  }
};

/// Write the three traces for `seed` into `dir` (created if missing), each
/// `duration_s` long. Throws std::runtime_error when a file cannot be
/// written.
TraceFiles generate_traces(const std::string& dir, std::uint64_t seed,
                           double duration_s);

}  // namespace wheelsbench
