// The process-wide executor: one deterministic fan-out/join entry point.
//
// Every parallel site in the simulator — the campaign's per-carrier fan-out,
// the UE pool's block sweeps, FleetRunner and ReplayFleet, the ingest join,
// bootstrap resampling, wheelsd's job waves and the ablation benches — calls
// parallel_for. The executor guarantees *completion* of a batch, never
// execution order. Callers that need reproducible output make every index
// computationally independent, write only index-owned slots, and merge the
// slots in index order after parallel_for returns — see
// measure::merge_shard_into for the campaign's merge step.
#pragma once

#include <cstddef>
#include <functional>

namespace wheels::core {

/// Resolve a requested worker-thread count: values > 0 pass through
/// unchanged; 0 means "auto" — the WHEELS_THREADS environment variable when
/// set to a positive integer, otherwise std::thread::hardware_concurrency().
/// Always returns >= 1; 1 selects the serial path everywhere.
int resolve_threads(int requested);

/// Run fn(i) for every i in [0, n), at most `threads` wide (resolved with
/// resolve_threads), and return once every index has completed.
///
/// The width is min(resolve_threads(threads), n). At width <= 1, fn(0..n-1)
/// runs inline, in order, on the calling thread. Otherwise the caller and up
/// to width - 1 helpers from one process-wide, grow-only set of worker
/// threads claim indices from a shared counter. The caller can finish its
/// own batch alone, so calls may nest (fn may call parallel_for) and several
/// threads may call concurrently without deadlock. An exception escaping
/// fn(i) is captured; once the batch has drained, the exception of the
/// lowest throwing index is rethrown — the same error at every width.
///
/// Counters: pool.batches += 1 and pool.tasks_run += n on every call at
/// every width (so the deterministic snapshot is thread-invariant);
/// rt.pool.steals counts indices run by a helper; rt.pool.batch_ms times
/// each call.
void parallel_for(int threads, std::size_t n,
                  const std::function<void(std::size_t)>& fn);

}  // namespace wheels::core
