// Bounded-memory line input for the streaming ingest path.
//
// Multi-GB drive recordings cannot be slurped through std::getline into one
// CanonicalTrace; the chunked pull model reads a fixed-size window of the
// input at a time and hands adapters *bounded line batches* — views into the
// current window plus the physical 1-based line number of every line, with
// the shared trace dialect (comment/blank skipping, CRLF) already applied.
// Peak memory is O(chunk_bytes + batch carry), independent of file size.
//
// Two backends sit behind one interface:
//  - ChunkedReader maps chunk-sized windows of a regular file (mmap,
//    MADV_SEQUENTIAL, unmapped as the cursor advances — address space stays
//    O(chunk_bytes), which is what lets a 100 MB trace ingest under a tight
//    ulimit -v) and falls back to buffered ifstream reads for pipes,
//    non-regular files, or when ChunkSpec.use_mmap is off;
//  - IstreamLineSource adapts any std::istream, so the whole-file
//    convenience entry points (TraceAdapter::parse, tests on stringstreams)
//    run through the exact same incremental parsers.
#pragma once

#include <cstddef>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "ingest/trace_text.hpp"

namespace wheels::ingest {

/// Geometry of the chunked pull path.
struct ChunkSpec {
  /// Bytes per input window. Values below one are clamped to one; tiny
  /// windows are legal (the equivalence tests sweep them) but slow.
  std::size_t chunk_bytes = 1 << 20;
  /// Upper bound on lines per pulled batch (clamped to >= 1). A batch also
  /// ends at a window boundary, so views never outlive their window.
  std::size_t batch_lines = 4096;
  /// Map windows of regular files instead of copying them through a read
  /// buffer. Ignored (with the buffered fallback) for non-regular inputs.
  bool use_mmap = true;
};

/// One payload line: CR-stripped text plus its physical 1-based line number.
/// The view is valid only until the next next_batch() call.
struct LineRef {
  std::string_view text;
  std::size_t number = 0;
};

/// Pull interface the incremental adapters consume.
class LineSource {
 public:
  virtual ~LineSource() = default;

  /// Refill `batch` with the next payload lines (at least one, at most
  /// ChunkSpec.batch_lines); false once the input is exhausted (the batch is
  /// left empty). Views die at the next call.
  virtual bool next_batch(std::vector<LineRef>& batch) = 0;

  /// Physical 1-based line number of the last line handed out, or one past
  /// the final physical line once next_batch returned false — the same
  /// end-of-input convention as TraceLineReader.
  virtual std::size_t line_number() const = 0;
};

/// File-backed LineSource: mmap windows with a buffered-read fallback.
/// Throws std::runtime_error{"ingest: cannot open <path>"} on open failure.
class ChunkedReader final : public LineSource {
 public:
  ChunkedReader(const std::string& path, const ChunkSpec& spec);
  ~ChunkedReader() override;

  ChunkedReader(const ChunkedReader&) = delete;
  ChunkedReader& operator=(const ChunkedReader&) = delete;

  bool next_batch(std::vector<LineRef>& batch) override;
  std::size_t line_number() const override { return line_; }

  /// True when the mmap backend drives this reader (tests assert the fast
  /// path actually engaged on regular files).
  bool mmap_active() const { return fd_ >= 0; }

 private:
  bool load_window();
  void unmap();

  ChunkSpec spec_;
  std::string path_;

  // Current window, whichever backend filled it.
  const char* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t cur_ = 0;

  // mmap backend.
  int fd_ = -1;
  void* map_ = nullptr;
  std::size_t map_len_ = 0;
  std::uint64_t file_size_ = 0;
  std::uint64_t offset_ = 0;

  // Buffered fallback backend.
  std::ifstream is_;
  std::vector<char> buf_;

  /// Partial line spanning a window boundary, accumulated across windows.
  std::string pending_;
  bool pending_active_ = false;
  /// Completed boundary-spanning lines of the current batch (stable storage
  /// for their views; at most one per window crossed).
  std::vector<std::string> carry_;

  std::size_t line_ = 0;
  bool finished_ = false;
};

/// Adapts any std::istream to the pull interface (owned string storage per
/// batch). The legacy whole-file parse path and stringstream-based tests run
/// through this, so every adapter has exactly one parser.
class IstreamLineSource final : public LineSource {
 public:
  explicit IstreamLineSource(std::istream& is, std::size_t batch_lines = 4096);

  bool next_batch(std::vector<LineRef>& batch) override;
  std::size_t line_number() const override { return reader_.line_number(); }

 private:
  TraceLineReader reader_;
  std::size_t batch_lines_;
  std::vector<std::pair<std::string, std::size_t>> lines_;
  bool done_ = false;
};

}  // namespace wheels::ingest
