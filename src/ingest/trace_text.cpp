#include "ingest/trace_text.hpp"

#include <istream>

namespace wheels::ingest {

bool TraceLineReader::next(std::string& line) {
  while (std::getline(is_, line)) {
    ++line_;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    if (line.front() == '#') continue;
    return true;
  }
  ++line_;  // diagnostics at end of input point past the last line
  return false;
}

}  // namespace wheels::ingest
