// Top-level ingest API: file in, validated ReplayBundle out.
//
// The free functions here tie the subsystem together for callers (the
// ingest_trace CLI, replay_dataset --import, fleet path specs, tests):
// resolve an adapter from the registry (sniffing the file only when the
// format is "auto" — an explicit format never requires a readable,
// sniffable head), stream the file through the adapter's incremental
// parser with the format's side-channel companions applied in-line
// (Mahimahi uplink merge, paper rtts.csv overlay), and hand the point
// stream to the join layer for resampling and bundle assembly.
// stream_trace() is the bounded-memory core; load_trace() is its
// whole-file wrapper. Every error is prefixed with the offending path.
#pragma once

#include <string>
#include <vector>

#include "ingest/adapter.hpp"
#include "ingest/join.hpp"

namespace wheels::ingest {

/// Stream one file's canonical points into `sink` (finished exactly once on
/// success) through a ChunkedReader sized by options.chunk. `format` is an
/// adapter name or "auto" (sniff — only then is the file head read twice).
/// Applies the Mahimahi uplink merge when options.mahimahi_uplink_path is
/// set and the resolved adapter is "mahimahi", and the paper rtts.csv
/// overlay when options.paper_rtts_path is set (or a sibling rtts.csv
/// exists) and the resolved adapter is "paper". Errors carry the path.
void stream_trace(const AdapterRegistry& registry, const std::string& format,
                  const std::string& path, const IngestOptions& options,
                  PointSink& sink);

/// Whole-file wrapper over stream_trace: materializes the stream as a
/// CanonicalTrace. Identical resolution, companions and errors.
CanonicalTrace load_trace(const AdapterRegistry& registry,
                          const std::string& format, const std::string& path,
                          const IngestOptions& options);

/// stream_trace + the join layer against the builtin registry: the one-call
/// single-carrier import, with peak memory bounded by options.chunk rather
/// than the input size.
replay::ReplayBundle ingest_file(const std::string& format,
                                 const std::string& path,
                                 const IngestOptions& options);

struct JoinEntry {
  radio::Carrier carrier = radio::Carrier::Verizon;
  std::string path;
};

/// Parse "Carrier=path[,Carrier=path...]" (canonical carrier names) into
/// join entries. Throws on malformed specs or unknown carriers.
std::vector<JoinEntry> parse_join_spec(const std::string& spec);

/// Stream every entry (each sniffed independently when `format` is "auto")
/// and join them onto one campaign timeline. Inputs are sharded
/// options.threads wide (one worker per input file, 0 = WHEELS_THREADS /
/// auto); the bundle is byte-identical at every shard count.
replay::ReplayBundle ingest_join(const std::string& format,
                                 const std::vector<JoinEntry>& entries,
                                 const IngestOptions& options,
                                 const JoinOptions& join);

/// One fleet path spec: a dataset directory, or an external trace (a path
/// ending in ".csv"). A trace may carry an "@carrier" suffix (a canonical
/// carrier name, default Verizon) that tags the bundle lifted from it; a
/// directory may not, since its bundle records its own carriers.
struct FleetSpec {
  std::string path;
  radio::Carrier carrier = radio::Carrier::Verizon;
  bool is_trace = false;
};

/// Split `spec` into path, carrier and kind. Throws std::runtime_error on a
/// suffix that is not a carrier name, or on a carrier suffix after a path
/// that is not a .csv trace.
FleetSpec parse_fleet_spec(const std::string& spec);

/// Load one fleet bundle: read_dataset for a directory; for a trace,
/// ingest_file tagged with the spec's carrier — format "auto", so a fleet
/// reads every format the ingest registry sniffs, or "minimal" when no
/// adapter claims the file (the minimal columns in any order).
replay::ReplayBundle load_fleet_bundle(const std::string& spec);

/// Expand fleet path specs in place of globbing: a spec naming a directory
/// that is not itself a bundle (no manifest.json) but holds bundle
/// subdirectories — e.g. synth_trace --out output, output/cycle-000/... —
/// expands to those subdirectories in lexicographic name order. Every other
/// spec (bundle dirs, traces) passes through unchanged. Throws
/// std::runtime_error when a directory spec contains no bundles.
std::vector<std::string> expand_fleet_specs(
    const std::vector<std::string>& specs);

}  // namespace wheels::ingest
