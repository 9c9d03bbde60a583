// Span recorder for the traced run. Spans are recorded by the benchmark
// around its calls into the library's public functions (the library itself
// carries no instrumentation): each span has a name, start, end, the span
// that was open on the same thread when it began, and an optional request
// id shared by the spans of one request. Spans live in memory and are
// written out once, when the run ends.
//
// Recording is off unless Tracer::enable(true) was called; a disabled
// Span constructor reads one flag and returns.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

struct SpanRecord {
  const char* name = nullptr;  ///< static string
  std::int64_t start_ns = 0;   ///< since the tracer's epoch
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;    ///< index of the enclosing span, -1 if none
  std::uint64_t id = 0;        ///< request id (0 = none)
  std::uint32_t thread = 0;    ///< small per-thread ordinal
};

/// Per-name totals over the recorded spans.
struct SpanTotals {
  std::size_t count = 0;
  double self_ms = 0;  ///< sum of durations minus child-covered time
  std::vector<double> samples_ms;  ///< each span's duration
};

class Tracer {
 public:
  static void enable(bool on);
  [[nodiscard]] static bool enabled();
  /// Per-name totals over the spans recorded from index `first` on (see
  /// size()): a span's self time is its duration minus the time its child
  /// spans cover (children run on the span's own thread, nested and
  /// sequential, so their durations add up without overlap).
  [[nodiscard]] static std::map<std::string, SpanTotals> totals(
      std::size_t first = 0);

  /// Chrome trace-event JSON ("X" events; args carry parent and id).
  static bool write_json(const std::string& path);

  /// Spans recorded so far; the index the next span will get.
  [[nodiscard]] static std::size_t size();

  /// A span name built at run time (e.g. from a layer name), kept alive
  /// for the rest of the process so spans can hold it by pointer.
  [[nodiscard]] static const char* intern(const std::string& name);

  /// RAII span: records [construction, destruction) when tracing is on.
  class Span {
   public:
    explicit Span(const char* name, std::uint64_t id = 0);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    std::int64_t index_ = -1;
  };
};

}  // namespace perfbench
